(** A finished execution trace with its happens-before relation.

    The happens-before relation is the transitive closure of
    - program order (events of one process, in order),
    - value flow: a read is ordered after every write whose value it
      observed ([reads-from] edges supplied by the recorder),
    - lock order: a release is ordered before the next acquire of the same
      lock,
    - RMW serialization: an atomic update is ordered after every RMW
      release on the words it covers ([sync] edges supplied by the
      recorder — the online detector's S clock), and
    - barriers: every exit of generation [g] is ordered after every enter
      of generation [g].

    This is the reference semantics for §3.3's definition of a race:
    conflicting accesses with no happens-before path between them. The
    offline checker here is the {e ground truth} against which the online
    detector's verdicts are scored (experiments E8/E9).

    Internally each event gets a vector clock of dimension [n] computed in
    one pass (edges always point from older to newer ids, a recorder
    invariant), so {!happens_before} is O(1) per query. *)

type t

val build :
  n:int ->
  events:Event.t array ->
  preds:int list array ->
  ?sync:int list array ->
  unit ->
  t
(** [build ~n ~events ~preds ()] assembles a trace. [events.(i)] must
    have id [i]; [preds.(i)] are the {e extra} (non-program-order)
    predecessor ids of event [i], each [< i] — observation edges, which
    order only the event's successors. [sync.(i)] (default: none) are
    synchronization predecessors, which also order event [i] itself for
    race purposes. Raises [Invalid_argument] if an invariant is broken.
    Normally called by [Recorder.finish], not directly. *)

val n : t -> int
(** Number of processes. *)

val length : t -> int
(** Number of events. *)

val events : t -> Event.t array
(** The events, by id. Do not mutate. *)

val accesses : t -> Event.access list
(** Access events only, in id order. *)

val vector_clock : t -> int -> Dsm_clocks.Vector_clock.t
(** The HB vector clock assigned to an event (snapshot). *)

val happens_before : t -> int -> int -> bool
(** [happens_before t a b] iff event [a] causally precedes event [b]. *)

val concurrent : t -> int -> int -> bool
(** Neither [happens_before t a b] nor [happens_before t b a], and
    [a <> b]. *)

type race_pair = { first : Event.access; second : Event.access }
(** A ground-truth race: conflicting accesses, [first.id < second.id],
    such that [first] is not ordered before [second]'s {e program
    predecessor} (nor before one of its synchronization predecessors). The program-predecessor formulation matters for pairs
    connected by a reads-from edge: a read that observes a concurrent
    write is {e racing} with it — the observation itself is not
    synchronization; it only orders the reader's {e subsequent} events.
    This is precisely the quantity the paper's algorithm evaluates (the
    accessor's clock is compared {e before} it absorbs the datum's
    clocks). *)

val races : t -> race_pair list
(** All ground-truth races, ordered by [(second.id, first.id)]. *)

val race_ordered : t -> first:int -> second:int -> bool
(** [race_ordered t ~first ~second] iff [first] is, or happens-before,
    [second]'s program predecessor or one of its synchronization
    predecessors (so the pair cannot race). [first < second] required. *)

val racy_access_ids : t -> (int, unit) Hashtbl.t
(** The set of access ids participating in at least one race. *)

val explain : t -> first:int -> second:int -> string
(** Human-readable verdict for a pair of events ([first < second]): when
    the pair is ordered for race purposes, the shortest happens-before
    chain from [first] to [second]'s program predecessor (each hop an
    event rendered with {!Event.pp}); when it is not, a statement of
    concurrency. The "why did/didn't this pair race?" debugging aid. *)

val to_dot : t -> string
(** Graphviz rendering of events and HB edges (program order solid,
    reads-from dashed, sync dotted). *)

val pp_summary : Format.formatter -> t -> unit
