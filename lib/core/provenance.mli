(** Per-granule access provenance: a bounded ring (depth =
    [Config.provenance_depth]) of the most recent checked accesses —
    last writer plus recent readers — per (node, offset, len) granule,
    so a race signal can name {e both} endpoints.

    Observation-only detector state: consulted and updated on the
    detection path, never feeding back into clocks, verdicts or
    scheduling — attaching it cannot change a run's fingerprint. *)

open Dsm_clocks

type entry = {
  pid : int;
  kind : Dsm_trace.Event.kind;
  time : float;  (** simulated µs at check time *)
  op : int;  (** detector checked-op ordinal *)
  event_id : int;  (** trace event id, [-1] when tracing is off *)
  clock : Vector_clock.t;  (** accessor clock snapshot at check time *)
}

type t

val create : depth:int -> t
(** [depth = 0] disables the store: {!note} is a no-op and every lookup
    is empty. *)

val depth : t -> int

val note : t -> node:int -> offset:int -> len:int -> entry -> unit
(** Record an access, evicting the oldest once the granule's ring is
    full. O(1). Granules are keyed per node by
    {!Clock_store.pack_key}, so distinct granules never share a ring;
    raises [Invalid_argument] on a negative node or on an offset or
    length outside that key's range. The entry's clock is kept as is —
    pass an immutable {!Dsm_clocks.Vector_clock.snapshot}, which the
    store and race reports may share. *)

val history : t -> node:int -> offset:int -> len:int -> entry list
(** Retained accesses, newest first (at most [depth]). *)

val find_prior :
  t ->
  node:int ->
  offset:int ->
  len:int ->
  pid:int ->
  write:bool ->
  clock:Vector_clock.t ->
  entry option
(** The race's other endpoint: the most recent retained access by a
    different process that conflicts with the flagged access ([write]
    true unless both are plain reads) and whose clock is concurrent
    with [clock]. Falls back to the most recent conflicting access when
    no retained entry is concurrent (the true endpoint may have aged
    out of the bounded ring). *)

val iter_granules :
  t -> f:(node:int -> offset:int -> len:int -> entry list -> unit) -> unit
(** Visit every granule with retained history in deterministic
    (node, offset, len) order; entries newest first. *)
