(** Race reports: §4.4's "signaled to the user … but must not abort".

    Every incomparability found by the detector becomes one {!race}
    record; execution continues. The report keeps them all, in signal
    order, for the experiment harness to score against ground truth. *)

type against = General_clock | Write_clock
(** Which per-datum clock the accessor's clock was incomparable with. *)

type prior_access = {
  p_pid : int;
  p_kind : Dsm_trace.Event.kind;
  p_time : float;
  p_op : int;  (** detector checked-op ordinal *)
  p_event_id : int option;
  p_clock : Dsm_clocks.Vector_clock.t;
}
(** The race's {e other} endpoint, recovered from the detector's
    per-granule provenance ring (see {!Provenance}): the most recent
    conflicting access by another process. *)

type race = {
  event_id : int option;
      (** trace event id of the flagged access, when tracing is on *)
  time : float;
  accessor : int;  (** initiating process *)
  kind : Dsm_trace.Event.kind;  (** the flagged access's kind *)
  granule : Dsm_memory.Addr.region;  (** the shared datum (or block) *)
  accessor_clock : Dsm_clocks.Vector_clock.t;
  datum_clock : Dsm_clocks.Vector_clock.t;
  against : against;
  prior : prior_access option;
      (** [None] when provenance is disabled ([provenance_depth = 0]) or
          no conflicting access is retained *)
}

type t

val create : ?verbose:bool -> unit -> t
(** With [verbose = true] every signal is also printed on stderr through
    [Logs] (the paper's "message on the standard output"). Default
    [false]: collect silently. *)

val signal : t -> race -> unit

val suppress : t -> Dsm_memory.Addr.region -> unit
(** §4.4: "some algorithms contain race conditions on purpose". Marks a
    region as intentionally racy: signals whose granule overlaps it —
    including signals that arrived {e before} the suppression — are
    still recorded (see {!suppressed}) but excluded from {!count},
    {!races} and the groupings, so the acknowledgment workflow of a real
    debugging tool stays consistent no matter when the region was
    acknowledged. *)

val suppressed : t -> race list
(** Signals swallowed by suppressions, in signal order. *)

val count : t -> int

val races : t -> race list
(** In signal order. *)

val flagged_event_ids : t -> (int, unit) Hashtbl.t
(** Trace event ids carried by the signals (tracing runs only). *)

val clear : t -> unit

type group = {
  g_granule : Dsm_memory.Addr.region;
  g_pids : int list;  (** distinct accessors involved, ascending *)
  g_count : int;  (** signals collapsed into this group *)
  g_first_time : float;
  g_kinds : Dsm_trace.Event.kind list;  (** distinct kinds, first-seen order *)
}

val grouped : t -> group list
(** Signals collapsed per shared datum — how a debugging tool would
    present them ("variable [a] is raced by P0 and P1, 17 times, first at
    t=18.65"). Ordered by first signal time. *)

val pp_group : Format.formatter -> group -> unit

val pp_grouped : Format.formatter -> t -> unit

val to_csv : t -> string
(** One row per signal:
    [time,accessor,kind,node,offset,len,against,accessor_clock,datum_clock,event_id]
    — the machine-readable companion of [Dsm_trace.Export]. [event_id]
    is empty when tracing was off, otherwise it joins the row to the
    recorded trace event.

    The byte format is a stable contract: {!fingerprint}, and through
    it the explorer's run fingerprints and replay tokens, hash these
    exact bytes. Each row is what
    [Printf.sprintf "%.6f,%d,%s,%d,%d,%d,%s,\"%s\",\"%s\",%s\n"] gives
    for the fields in header order, with [kind] as
    [Dsm_trace.Event.kind_name], [against] as [general] or [write], and
    each clock as {!Dsm_clocks.Vector_clock.to_string} prints it
    ([<c0,c1,...>], every component, no spaces). Suppressed signals are
    not listed. *)

val fingerprint : t -> string
(** Hex digest of {!to_csv}: two runs produced the same signals (same
    order, times, granules and clocks) iff their fingerprints match.
    The schedule explorer compares these to check per-schedule detector
    determinism and to validate replays. *)

val pp_race : Format.formatter -> race -> unit

val pp_summary : Format.formatter -> t -> unit
