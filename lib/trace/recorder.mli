(** Online trace construction.

    The recorder is fed by the instrumented operations while the
    simulation runs: one {!access} per put/get, plus program-level sync
    events. It maintains the last-writer shadow map that turns write→read
    value flow into reads-from edges, so the finished {!Trace.t} carries
    the exact happens-before relation with no further help.

    Events must be recorded in non-decreasing simulated time (true by
    construction when fed from a single discrete-event simulation). *)

type reads_from =
  | All_writers
      (** a read is ordered after {e every} earlier write to each word it
          covers — the causality the paper's clocks compute: a datum's
          write clock [W] merges all writers, and a reader absorbs [W] *)
  | Last_writer
      (** classic happens-before: a read is ordered only after the write
          whose value it actually returned. Strictly weaker; the gap is
          measured in experiment E8 *)

type t

val create : ?reads_from:reads_from -> n:int -> unit -> t
(** Default [reads_from] is {!All_writers}, matching the algorithm under
    test. *)

val access :
  t ->
  time:float ->
  pid:int ->
  kind:Event.kind ->
  target:Dsm_memory.Addr.region ->
  ?label:string ->
  unit ->
  int
(** Records one access and returns its event id. A [Read] picks up
    reads-from edges to the last writer of every word it covers, and to
    the words' RMW release points; a [Write] becomes the last writer of
    its words. An [Atomic_update] reads like a [Read] but synchronizes
    with the release points — they order the update itself, the NIC's
    RMW serialization — and then becomes both a writer and a release
    point of its words. *)

val rmw_release : t -> pid:int -> target:Dsm_memory.Addr.region -> unit
(** [rmw_release t ~pid ~target] marks [pid]'s latest event as an RMW
    release point on [target]'s words: the online detector released the
    process's history into the words' S clocks ahead of an atomic
    update. Records no event. *)

val lock_acquire : t -> time:float -> pid:int -> lock:string -> int
(** Ordered after the previous {!lock_release} of the same lock name. *)

val lock_release : t -> time:float -> pid:int -> lock:string -> int

val barrier_enter : t -> time:float -> pid:int -> generation:int -> int

val barrier_exit : t -> time:float -> pid:int -> generation:int -> int
(** Ordered after every {!barrier_enter} of the same generation recorded
    so far — which is all of them, if called at barrier release time. *)

val size : t -> int
(** Events recorded so far. *)

val finish : t -> Trace.t
(** Freezes into a queryable trace. The recorder stays usable; a later
    [finish] returns a longer trace. *)
