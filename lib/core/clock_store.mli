(** Per-node clock metadata: the [V] and [W] clocks attached to every
    shared piece of data (§4.1–4.2).

    One store lives (conceptually in NIC memory) on each node and maps
    {e granules} of that node's public segment to a pair of clocks. A
    granule is the unit of detection chosen by {!Config.granularity}:
    the registered shared variable, an aligned block, or a single word.

    Entries are created lazily with zero clocks — the paper's initial
    value — and updated in place while the NIC lock on the covering
    region is held (§4.2's no-self-race argument).

    The table is keyed by the granule's [(offset, len)] packed into a
    single immediate [int] and hashed by an int-specialized hashtable, so
    the per-access lookup neither allocates nor runs polymorphic
    comparison; {!iter_granules} walks the granules of an access without
    building a list.

    The store is {e sharded} by address range: 64-word ranges round-robin
    across a power-of-two number of int-keyed tables, bounding any one
    table's load when word granularity meets large segments. Each shard
    also owns a scratch clock in the store's representation
    ({!shard_scratch}) so the batched-coherence path can fold a batch's
    clocks without allocating. Sharding is invisible to detection:
    granule identity, laziness and iteration order are unchanged. *)

type entry = {
  v : Dsm_clocks.Vector_clock.t;
      (** general-purpose clock: all plain accesses *)
  w : Dsm_clocks.Vector_clock.t;  (** write clock: plain writes only (§4.4) *)
  s : Dsm_clocks.Vector_clock.t;
      (** synchronization clock: atomic read-modify-writes. Atomics are
          NIC-serialized, so they never race with each other; they act as
          writes towards plain accesses and as release/acquire points for
          causality (extension beyond the paper, see
          [Detector.fetch_add]) *)
}

type t

val pack_key : offset:int -> len:int -> int
(** A granule's [(offset, len)] within one node, packed into one
    immediate [int] (the store's table key). Injective on its range:
    [0 <= len < 2^21] and [0 <= offset <= 2^40]; raises
    [Invalid_argument] outside it. Packed keys order like the pairs. *)

val unpack_key : int -> int * int
(** The [(offset, len)] of a {!pack_key} key. *)

val make_clock : Config.clock_rep -> n:int -> Dsm_clocks.Vector_clock.t
(** The zero clock of dimension [n] in representation [rep] — the one
    place a {!Config.clock_rep} picks a clock constructor; every clock
    the detector owns is made here. *)

val create :
  node:int ->
  clock_dim:int ->
  granularity:Config.granularity ->
  ?rep:Config.clock_rep ->
  ?shards:int ->
  unit ->
  t
(** [clock_dim] is the vector dimension ([n], or 1 in the Lamport
    ablation). [rep] (default {!Config.Sparse_vector}) fixes the
    representation of every lazily created clock. [shards] (default 1)
    is the number of address-range shards; must be a positive power of
    two ([Invalid_argument] otherwise). *)

val node : t -> int

val shards : t -> int
(** Number of address-range shards the granule table is split across. *)

val shard_scratch : t -> offset:int -> Dsm_clocks.Vector_clock.t
(** The scratch clock owned by the shard responsible for [offset] — in
    the store's clock representation, reusable between batches. Callers
    must [Vector_clock.reset] it before use and must not let it escape
    the current batch. *)

val register : t -> Dsm_memory.Addr.region -> unit
(** Declares a shared variable ({!Config.Variable} granularity): the
    compiler's role of §3.1. The region must be public, on this node, and
    must not overlap a previously registered variable.
    No-op under block/word granularity. *)

val iter_granules :
  t -> Dsm_memory.Addr.region -> f:(offset:int -> len:int -> unit) -> unit
(** [iter_granules t r ~f] calls [f] once per granule covering an access
    to [r], in address order, without materializing regions or lists —
    the detector's hot path. Under {!Config.Variable}, raises [Failure]
    {e before} visiting any granule if an accessed word falls outside
    every registered variable — shared data must be declared. *)

val granules : t -> Dsm_memory.Addr.region -> Dsm_memory.Addr.region list
(** List-building convenience over {!iter_granules} (tests, tooling). *)

val entry_at : t -> offset:int -> len:int -> entry
(** The clock triple of one granule identified by its raw coordinates
    (as passed to {!iter_granules}'s callback); lazily zero-initialized.
    Allocation-free on the hit path. *)

val entry : t -> Dsm_memory.Addr.region -> entry
(** {!entry_at} keyed by a region (control-plane convenience). *)

val entries : t -> int
(** Number of granules that have materialized clocks. *)

val storage_words : t -> int
(** Total words of clock metadata held: [entries × 2 × clock_dim] — the
    §5.1 storage-overhead numerator measured in E7. Representation-
    independent (an epoch still models a full vector). *)

val epoch_clocks : t -> int
(** How many of the materialized clocks (3 per entry) are currently held
    in the compact epoch representation — introspection for benchmarks
    and tests. *)
