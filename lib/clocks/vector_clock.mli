(** Vector clocks (Mattern 1988, the paper's reference [15]).

    A vector clock over [n] processes characterizes causality exactly
    (Charron-Bost's lower bound, §4.3 of the paper, shows [n] entries are
    also necessary): event [e1] happened-before [e2] iff
    [clock e1 < clock e2] componentwise. The paper's Algorithms 3 and 4 are
    {!compare} and {!merge}.

    Values are mutable: the simulator's processes and the per-datum clocks
    of the detector update them in place while holding the region lock, as
    prescribed by §4.2. Use {!snapshot} when a value must escape the
    critical section read-only (e.g. into a trace or a race report), and
    {!copy} when the escaped value will itself be updated.

    {2 Representation}

    The representation is {e adaptive}: a clock that has only ever been
    advanced by a single process is held as a compact FastTrack-style
    {e epoch} — a [(pid, count)] pair denoting the vector that is [count]
    at [pid] and zero elsewhere — and is promoted on the first
    cross-process merge or tick. Epoch operands give {!tick},
    {!merge_into}, {!compare} and {!leq} O(1), allocation-free fast
    paths; the abstract value, and therefore every detection verdict, is
    identical to the dense representation.

    Where the promotion lands is the clock's {!rep} policy. [Sparse],
    the adaptive policy of {!create}, promotes to sorted parallel
    [(pid, tick)] arrays holding only the nonzero components —
    compare/merge become merge scans over the sorted pids, O(active
    writers) instead of O(n) — and promotes again to the dense array
    once more than {!sparse_threshold} components are live. The pairs
    stage is used only where its two arrays, [2 (sparse_threshold n + 1)]
    words, are smaller than the dense array's [n] words — from [n = 11]
    on; below that an epoch promotes straight to the dense array.
    [Dense] is the always-vector ablation baseline and test oracle (see
    {!Config.clock_rep} in [dsm_core]). Both policies denote the same
    abstract vector: every observable result is
    representation-independent. *)

type t

type rep = Dense | Sparse
(** The promotion policy fixed at creation; see the module preamble. *)

val create : n:int -> t
(** [create ~n] is the zero clock of dimension [n] (all entries 0 —
    the paper's initial value, §4.2), under the adaptive [Sparse]
    policy. *)

val create_dense : n:int -> t
(** Like {!create}, but pinned to the dense array representation for the
    clock's whole lifetime. *)

val rep : t -> rep
(** The clock's promotion policy. *)

val sparse_threshold : n:int -> int
(** Number of live components beyond which a clock of dimension [n] in
    the pairs stage promotes to the dense array ([max 4 (n/8)]) —
    exposed so tests can aim at the promotion boundary exactly. *)

val dim : t -> int
(** Number of processes the clock covers. *)

val copy : t -> t
(** An independent, mutable clock with the same value, representation
    and spare capacity — for a clock you go on to tick or merge into.
    See {!snapshot} for read-only captures. *)

val of_array : ?dense:bool -> int array -> t
(** [of_array a] wraps a copy of [a] under the [Sparse] policy (the
    [Dense] one with [~dense:true]), in the most compact form the policy
    allows (epoch, sparse pairs, dense). Raises [Invalid_argument] if [a]
    is empty or contains a negative entry. *)

val to_array : t -> int array
(** Fresh array with the clock's entries — the wire representation. *)

val entry : t -> int -> int
(** [entry c i] is component [i]. Raises [Invalid_argument] when [i] is out
    of bounds. *)

val is_zero : t -> bool

val is_epoch : t -> bool
(** True while the clock is held in the compact epoch representation
    (introspection for tests, benchmarks and storage statistics). *)

val is_sparse : t -> bool
(** True while the clock is held as sorted [(pid, tick)] pairs. *)

val active_entries : t -> int
(** Number of nonzero components — what the sparse scans are linear in.
    O(1) for epoch and sparse clocks, O(dim) for dense ones. *)

val tick : t -> me:int -> unit
(** [tick c ~me] increments component [me]: the paper's
    [update_local_clock] step performed before every event (§4.2). *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] sets [into] to the componentwise maximum of
    [into] and [src] — Algorithm 4 ([max_clock]) applied in place.
    Raises [Invalid_argument] on dimension mismatch. *)

val merge : t -> t -> t
(** Pure Algorithm 4: fresh componentwise maximum. *)

val compare : t -> t -> Order.t
(** Algorithm 3. [compare a b] is
    {!Order.Equal} when all components agree, {!Order.Before} when
    [a <= b] componentwise with at least one strict, {!Order.After} for the
    converse, and {!Order.Concurrent} when neither dominates — the race
    verdict of Lemma 1. The scan exits early once both a lower and a
    higher component have been seen (the verdict is already
    [Concurrent]), and is O(1) when both operands are epochs.
    Raises [Invalid_argument] on dimension mismatch. *)

val leq : t -> t -> bool
(** [leq a b] iff [compare a b] is [Equal] or [Before]. O(1) when [a] is
    an epoch. *)

val concurrent : t -> t -> bool
(** [concurrent a b] iff no causal order exists between [a] and [b]. *)

val equal : t -> t -> bool

val sum : t -> int
(** Sum of components — a convenient progress measure for tests. *)

val size_words : t -> int
(** Words needed on the wire (the §4.3 linear-in-[n] cost measured by
    experiment E6). Representation-independent: always {!dim}. *)

val snapshot : t -> t
(** An immutable capture of the clock's current value, for records that
    outlive the moment (race reports, provenance entries, piggyback edge
    caches). Sized to the live entries: an epoch costs the record alone,
    a sparse clock exactly its live pairs, a dense clock its array —
    where {!copy} carries a sparse clock's full promotion-threshold
    capacity so it can grow in place. A snapshot may be shared by
    several holders, so treat it as read-only; use {!copy} for a clock
    you intend to mutate. *)

val reset : t -> unit
(** Zero every component in place, restoring the compact epoch
    representation under the [Sparse] policy. O(1) for that policy (a sparse clock's pair arrays keep their capacity, so a
    warmed-up scratch clock never allocates again); the scratch-buffer
    discipline of the detector's hot path ([Detector.check_access])
    relies on this being cheap. *)

val load_words : t -> int array -> off:int -> unit
(** [load_words c w ~off] overwrites [c] with the [dim c] words at
    [w.(off) ..] — the allocation-free counterpart of {!of_array} used to
    decode clocks arriving on the wire into a scratch clock. Re-derives
    the compact representation under the [Sparse] policy. Raises
    [Invalid_argument] on a short slice or negative entry. *)

val store_words : t -> int array -> off:int -> unit
(** [store_words c w ~off] writes the [dim c] components into [w] at
    [off] — the allocation-free counterpart of {!to_array}. *)

val merge_entry : t -> int -> int -> unit
(** [merge_entry c i x] raises component [i] to [max (entry c i) x] —
    {!merge_into} against the clock that is [x] at [i] and 0 elsewhere,
    without building it. Raises [Invalid_argument] when [i] is out of
    bounds or [x] is negative. *)

val iter_active : t -> (int -> int -> unit) -> unit
(** [iter_active c f] calls [f pid tick] for every nonzero component, in
    ascending [pid] order. O(active) for epoch and sparse clocks, O(dim)
    for dense ones. *)

val iter_diff : since:t -> t -> (int -> int -> unit) -> unit
(** [iter_diff ~since v f] calls [f pid (entry v pid)] for every [pid]
    where [v] and [since] differ, in ascending order — the payload of a
    differential encoding. A merge scan over the two live runs,
    O(active v + active since); one O(dim) walk when either operand is
    dense. Raises [Invalid_argument] on dimension mismatch. *)

val of_pairs : n:int -> int array -> off:int -> count:int -> t
(** [of_pairs ~n w ~off ~count] is the [Sparse]-policy clock of
    dimension [n] whose nonzero components are the [count] pairs
    [(w.(off + 2j), w.(off + 2j + 1))] — the inverse of {!iter_active},
    in the same compact form {!of_array} would choose, built without a
    dense array: O(count), and O(n) only where the result is dense.
    Raises [Invalid_argument] on a non-positive [n], a slice out of
    bounds, a pid outside [0 .. n-1], pids not strictly ascending, or
    a non-positive tick. *)

val merge_words : into:t -> int array -> off:int -> unit
(** [merge_words ~into w ~off] merges the clock encoded in the slice
    directly into [into] — {!merge_into} without materializing the
    source ({!Detector}'s explicit-transport update path). *)

val pp : Format.formatter -> t -> unit
(** Prints as [<a,b,c>]. *)

val to_string : t -> string
