(** Detector configuration: the paper's design choices, each toggleable for
    the ablation experiments of DESIGN.md §5.

    The default configuration is the paper's algorithm as published:
    vector clocks, the §4.4 write-clock refinement, clocks piggybacked on
    the data messages, one clock pair per registered shared variable,
    globally ordered lock acquisition. *)

type transport =
  | Inline
      (** detection folded into the NIC's own atomic put/get: no explicit
          lock transaction, clocks ride the data messages — the cheapest
          deployment ("in the communication library", §5.2) *)
  | Piggyback_txn
      (** the paper's Algorithms 1–2 verbatim — explicit lock/unlock
          around the transfer — with the clock exchange piggybacked on
          the data messages *)
  | Explicit_txn
      (** Algorithms 1–2 with Algorithm 5 taken literally: clock reads
          and writes are separate control messages to the datum's node *)

type clock_mode =
  | Vector       (** dimension-[n] clocks: Lemma 1 applies *)
  | Lamport_only
      (** scalar clocks (the E6 ablation): totally ordered, hence no
          incomparability, hence {e no race is ever detected} — the
          bench demonstrates why §4.3's lower bound matters *)

type granularity =
  | Variable          (** one clock pair per registered shared variable —
                          the paper's "a clock for each shared piece of
                          data" *)
  | Block of int      (** one clock pair per aligned block of [k] words *)
  | Word              (** one clock pair per word: finest, costliest *)

type clock_rep =
  | Dense_vector
      (** always-vector ablation baseline and test oracle: every clock is
          a dense dimension-[n] array from birth, as in the paper's cost
          model *)
  | Sparse_vector
      (** the adaptive representation (the default): clocks start as
          compact FastTrack-style [(pid, count)] epochs — the common
          single-writer access costs O(1) and allocates nothing — and a
          cross-process merge promotes them to sorted [(pid, tick)]
          pairs (compare/merge O(active writers), not O(n)), then past
          [Vector_clock.sparse_threshold] live components to a dense
          array. The pairs stage is skipped for n <= 10, where it would
          not be smaller than the dense array. Semantically transparent:
          the conformance suite holds both representations to identical
          verdicts *)

type clock_wire =
  | Dense_wire
      (** every piggyback ships the full dense vector — the paper's
          linear-in-[n] cost model taken literally on the wire *)
  | Sparse_wire
      (** every piggyback ships the sparse [(pid, tick)] pair form:
          O(active writers) per message, self-contained *)
  | Delta_wire
      (** adaptive per-edge differential encoding (the default): each
          clock-carrying message ships only the components changed since
          the last message on the same (src, dst) channel, or the
          smallest self-contained form when that is shorter or no cache
          entry exists yet. Wire-only — race verdicts, schedules and
          replay tokens are bit-identical across all three settings *)

type t = {
  use_write_clock : bool;
      (** §4.4: keep a separate write clock [W]; reads are checked against
          [W] only, eliminating read/read false positives *)
  transport : transport;
  clock_mode : clock_mode;
  granularity : granularity;
  clock_rep : clock_rep;
      (** representation of every clock the detector owns (process,
          per-datum, per-lock, scratch); see {!clock_rep} *)
  clock_wire : clock_wire;
      (** wire encoding of the clocks piggybacked on data messages under
          the [Inline] and [Piggyback_txn] transports; see {!clock_wire}.
          Accounting-only: the fabric's timing model still charges the
          nominal [dim + 1] words, so schedules are unchanged *)
  store_shards : int;
      (** number of address-range shards each node's [Clock_store] hashes
          its granules across (power of two; default 8). Sharding bounds
          per-table load when word granularity meets large segments, and
          gives the batched-coherence path a per-shard scratch clock;
          it never changes detection results *)
  record_trace : bool;
      (** also feed a [Dsm_trace.Recorder] for offline ground truth *)
  trace_reads_from : [ `All_writers | `Last_writer ];
      (** reads-from semantics of the recorded trace: [`All_writers]
          matches the clocks' own causality (a reader absorbs the whole
          write clock), [`Last_writer] is strict happens-before — the
          E8 gap measurement *)
  ordered_locking : bool;
      (** acquire transaction locks in global (pid, offset) order to avoid
          distributed deadlock; [false] reproduces the paper's literal
          src-then-dst order, which can deadlock (see the test suite) *)
  lock_aware_clocks : bool;
      (** extension beyond the paper: propagate causality through
          user-level locks ([Detector.lock]/[Detector.unlock]) by keeping
          a clock per lock — release publishes the holder's clock,
          acquire absorbs it. With the paper's plain clocks ([false],
          the default) lock-disciplined programs produce false positives;
          experiment E11 measures the difference *)
  provenance_depth : int;
      (** how many recent accesses (last writer + recent readers) the
          detector retains per granule so a race can name {e both}
          endpoints (default 4; [0] disables provenance entirely).
          Observation-only: never changes verdicts, schedules or
          fingerprints *)
  memory_model : Dsm_rdma.Model.t;
      (** the memory-model backend whose detector hooks pick the
          happens-before edges derived per message class — which
          accesses acquire the granule's write history, whether RMWs
          serialize through the S clock, whether writes see total store
          order (see {!Dsm_rdma.Model.hooks}). Default
          {!Dsm_rdma.Model.default} ([Nic_atomic], the paper's model).
          Must agree with the machine's model
          ({!Dsm_rdma.Machine.create}'s [?model]) — [Detector.create]
          rejects a mismatch *)
}

val default : t

val transport_name : transport -> string

val granularity_name : granularity -> string

val clock_wire_name : clock_wire -> string

val validate : t -> t
(** Checks internal consistency (e.g. positive block size); returns the
    config or raises [Invalid_argument]. *)
