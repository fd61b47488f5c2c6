(* Tests for dsm_trace: happens-before construction, ground-truth races,
   renderers. *)

open Dsm_memory
open Dsm_trace

let reg ?(pid = 0) offset len = Addr.region ~pid ~space:Addr.Public ~offset ~len

let acc r ~t ~pid ~kind ~target = Recorder.access r ~time:t ~pid ~kind ~target ()

(* ---------- event basics ---------- *)

let test_event_conflict () =
  let mk id pid kind offset =
    {
      Event.id;
      time = 0.;
      pid;
      kind;
      target = reg ~pid:2 offset 2;
      label = "";
    }
  in
  let w0 = mk 0 0 Event.Write 0 in
  let r1 = mk 1 1 Event.Read 1 in
  let r2 = mk 2 1 Event.Read 0 in
  let w_same_pid = mk 3 0 Event.Write 0 in
  Alcotest.(check bool) "write/read overlap" true (Event.conflict w0 r1);
  Alcotest.(check bool) "read/read never" false (Event.conflict r1 r2);
  Alcotest.(check bool) "same pid never" false (Event.conflict w0 w_same_pid);
  let far = mk 4 1 Event.Write 10 in
  Alcotest.(check bool) "disjoint never" false (Event.conflict w0 far)

(* ---------- program order ---------- *)

let test_program_order () =
  let r = Recorder.create ~n:2 () in
  let a = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let b = acc r ~t:2. ~pid:0 ~kind:Event.Write ~target:(reg 4 1) in
  let c = acc r ~t:3. ~pid:1 ~kind:Event.Write ~target:(reg 8 1) in
  let t = Recorder.finish r in
  Alcotest.(check bool) "a before b" true (Trace.happens_before t a b);
  Alcotest.(check bool) "b not before a" false (Trace.happens_before t b a);
  Alcotest.(check bool) "a concurrent c" true (Trace.concurrent t a c)

let test_reads_from_edge () =
  let r = Recorder.create ~n:3 () in
  let w = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg ~pid:2 0 4) in
  let rd = acc r ~t:2. ~pid:1 ~kind:Event.Read ~target:(reg ~pid:2 2 2) in
  let after = acc r ~t:3. ~pid:1 ~kind:Event.Write ~target:(reg ~pid:2 8 1) in
  let t = Recorder.finish r in
  Alcotest.(check bool) "write before read (value flow)" true
    (Trace.happens_before t w rd);
  Alcotest.(check bool) "transitive to later events" true
    (Trace.happens_before t w after)

let test_read_of_unwritten_has_no_edge () =
  let r = Recorder.create ~n:2 () in
  let w = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg ~pid:1 0 2) in
  let rd = acc r ~t:2. ~pid:1 ~kind:Event.Read ~target:(reg ~pid:1 4 2) in
  let t = Recorder.finish r in
  Alcotest.(check bool) "disjoint words: no edge" true (Trace.concurrent t w rd)

let test_last_writer_wins () =
  let r = Recorder.create ~n:3 () in
  let w1 = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg ~pid:2 0 1) in
  let w2 = acc r ~t:2. ~pid:1 ~kind:Event.Write ~target:(reg ~pid:2 0 1) in
  let rd = acc r ~t:3. ~pid:0 ~kind:Event.Read ~target:(reg ~pid:2 0 1) in
  let t = Recorder.finish r in
  (* The read observes w2 (last writer), not w1. *)
  Alcotest.(check bool) "w2 -> rd" true (Trace.happens_before t w2 rd);
  Alcotest.(check bool) "w1 -/-> rd directly" true
    (* w1 and rd are same pid, so program order orders them anyway *)
    (Trace.happens_before t w1 rd);
  Alcotest.(check bool) "w1 concurrent w2" true (Trace.concurrent t w1 w2)

(* ---------- locks ---------- *)

let test_lock_edges () =
  let r = Recorder.create ~n:2 () in
  let a1 = Recorder.lock_acquire r ~time:1. ~pid:0 ~lock:"m" in
  let w = acc r ~t:2. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = Recorder.lock_release r ~time:3. ~pid:0 ~lock:"m" in
  let a2 = Recorder.lock_acquire r ~time:4. ~pid:1 ~lock:"m" in
  let w2 = acc r ~t:5. ~pid:1 ~kind:Event.Write ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check bool) "release -> acquire" true (Trace.happens_before t a1 a2);
  Alcotest.(check bool) "critical sections ordered" true
    (Trace.happens_before t w w2);
  Alcotest.(check int) "no race thanks to the lock" 0
    (List.length (Trace.races t))

let test_different_locks_do_not_order () =
  let r = Recorder.create ~n:2 () in
  let _ = Recorder.lock_acquire r ~time:1. ~pid:0 ~lock:"m1" in
  let w = acc r ~t:2. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = Recorder.lock_release r ~time:3. ~pid:0 ~lock:"m1" in
  let _ = Recorder.lock_acquire r ~time:4. ~pid:1 ~lock:"m2" in
  let w2 = acc r ~t:5. ~pid:1 ~kind:Event.Write ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check bool) "still concurrent" true (Trace.concurrent t w w2);
  Alcotest.(check int) "one race" 1 (List.length (Trace.races t))

(* ---------- RMW serialization ---------- *)

(* The NIC serializes RMWs on a word, so an atomic update synchronizes
   with the earlier ones: a plain access P0 made before its own atomic is
   ordered before P1's later atomic. A plain read only observes the
   atomic — the read itself still races with it. *)
let test_rmw_serialization_orders_the_atomic () =
  let r = Recorder.create ~n:3 () in
  let w = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let a0 = acc r ~t:2. ~pid:0 ~kind:Event.Atomic_update ~target:(reg 0 1) in
  let a1 = acc r ~t:3. ~pid:1 ~kind:Event.Atomic_update ~target:(reg 0 1) in
  let rd = acc r ~t:4. ~pid:2 ~kind:Event.Read ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check bool) "write not racing the later atomic" true
    (Trace.race_ordered t ~first:w ~second:a1);
  Alcotest.(check bool) "atomic -> atomic" true (Trace.happens_before t a0 a1);
  Alcotest.(check (list (pair int int))) "only the read races"
    [ (w, rd); (a0, rd); (a1, rd) ]
    (List.map
       (fun { Trace.first; second } -> (first.Event.id, second.Event.id))
       (Trace.races t)
    |> List.sort compare)

(* An RMW release marks the issuer's history before the atomic itself is
   recorded: a later atomic synchronizes with it, a later read observes
   it. *)
let test_rmw_release_point () =
  let r = Recorder.create ~n:3 () in
  let w = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 4 1) in
  Recorder.rmw_release r ~pid:0 ~target:(reg 0 1);
  let a1 = acc r ~t:2. ~pid:1 ~kind:Event.Atomic_update ~target:(reg 0 1) in
  let rd = acc r ~t:3. ~pid:2 ~kind:Event.Read ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check bool) "release -> atomic" true (Trace.happens_before t w a1);
  Alcotest.(check bool) "release -> read" true (Trace.happens_before t w rd)

(* ---------- barriers ---------- *)

let test_barrier_orders_phases () =
  let r = Recorder.create ~n:2 () in
  let before0 = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = Recorder.barrier_enter r ~time:2. ~pid:0 ~generation:0 in
  let _ = Recorder.barrier_enter r ~time:2.5 ~pid:1 ~generation:0 in
  let _ = Recorder.barrier_exit r ~time:3. ~pid:0 ~generation:0 in
  let _ = Recorder.barrier_exit r ~time:3. ~pid:1 ~generation:0 in
  let after1 = acc r ~t:4. ~pid:1 ~kind:Event.Read ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check bool) "pre-barrier write HB post-barrier read" true
    (Trace.happens_before t before0 after1);
  Alcotest.(check int) "no race across barrier" 0 (List.length (Trace.races t))

let test_barrier_generations_independent () =
  let r = Recorder.create ~n:2 () in
  let w0 = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = Recorder.barrier_enter r ~time:2. ~pid:0 ~generation:5 in
  let _ = Recorder.barrier_exit r ~time:2.5 ~pid:0 ~generation:5 in
  (* pid 1 crosses a different generation: no ordering. *)
  let _ = Recorder.barrier_enter r ~time:3. ~pid:1 ~generation:6 in
  let _ = Recorder.barrier_exit r ~time:3.5 ~pid:1 ~generation:6 in
  (* A write: unlike a read it picks up no reads-from edge, so only the
     barrier could order it — and the generations differ. *)
  let w1 = acc r ~t:4. ~pid:1 ~kind:Event.Write ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check bool) "different generations do not sync" true
    (Trace.concurrent t w0 w1)

(* ---------- races ---------- *)

let test_races_found () =
  let r = Recorder.create ~n:3 () in
  let w0 = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg ~pid:2 0 2) in
  let w1 = acc r ~t:1.5 ~pid:1 ~kind:Event.Write ~target:(reg ~pid:2 1 2) in
  let t = Recorder.finish r in
  match Trace.races t with
  | [ { first; second } ] ->
      Alcotest.(check int) "first" w0 first.Event.id;
      Alcotest.(check int) "second" w1 second.Event.id
  | l -> Alcotest.failf "expected exactly one race, got %d" (List.length l)

let test_read_read_not_a_race () =
  let r = Recorder.create ~n:3 () in
  let _ = acc r ~t:1. ~pid:0 ~kind:Event.Read ~target:(reg ~pid:2 0 1) in
  let _ = acc r ~t:1.5 ~pid:1 ~kind:Event.Read ~target:(reg ~pid:2 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check int) "no race" 0 (List.length (Trace.races t))

let test_racy_access_ids () =
  let r = Recorder.create ~n:2 () in
  let w0 = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let w1 = acc r ~t:2. ~pid:1 ~kind:Event.Write ~target:(reg 0 1) in
  let safe = acc r ~t:3. ~pid:0 ~kind:Event.Write ~target:(reg 9 1) in
  let t = Recorder.finish r in
  let set = Trace.racy_access_ids t in
  Alcotest.(check bool) "w0 racy" true (Hashtbl.mem set w0);
  Alcotest.(check bool) "w1 racy" true (Hashtbl.mem set w1);
  Alcotest.(check bool) "safe not racy" false (Hashtbl.mem set safe)

let test_vector_clock_shape () =
  let r = Recorder.create ~n:2 () in
  let a = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let b = acc r ~t:2. ~pid:1 ~kind:Event.Read ~target:(reg 0 1) in
  let t = Recorder.finish r in
  let open Dsm_clocks in
  Alcotest.(check int) "a clock own" 1 (Vector_clock.entry (Trace.vector_clock t a) 0);
  (* b read a's write: clock = <1,1> *)
  Alcotest.(check int) "b absorbed a" 1 (Vector_clock.entry (Trace.vector_clock t b) 0);
  Alcotest.(check int) "b own" 1 (Vector_clock.entry (Trace.vector_clock t b) 1)

let test_build_rejects_forward_edges () =
  let events =
    [|
      Event.Access
        { id = 0; time = 0.; pid = 0; kind = Event.Write; target = reg 0 1; label = "" };
    |]
  in
  Alcotest.check_raises "forward edge"
    (Invalid_argument "Trace.build: edge does not point backwards") (fun () ->
      ignore (Trace.build ~n:1 ~events ~preds:[| [ 0 ] |] ()))

let test_to_dot_mentions_events () =
  let r = Recorder.create ~n:2 () in
  let _ = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = acc r ~t:2. ~pid:1 ~kind:Event.Read ~target:(reg 0 1) in
  let t = Recorder.finish r in
  let dot = Trace.to_dot t in
  Alcotest.(check bool) "has digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "mentions e0" true
    (Test_util.contains dot "e0 ")

let test_explain_ordered_path () =
  let r = Recorder.create ~n:2 () in
  let w = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let rd = acc r ~t:2. ~pid:1 ~kind:Event.Read ~target:(reg 0 1) in
  let w2 = acc r ~t:3. ~pid:1 ~kind:Event.Write ~target:(reg 0 1) in
  let t = Recorder.finish r in
  (* (w, w2) is ordered: w -> rd (reads-from) -> w2 (program order). *)
  let s = Trace.explain t ~first:w ~second:w2 in
  Alcotest.(check bool) "says ordered" true (Test_util.contains s "ordered");
  Alcotest.(check bool) "path goes through the read" true
    (Test_util.contains s "read");
  (* (w, rd) itself races: the observation edge does not order the pair. *)
  let s' = Trace.explain t ~first:w ~second:rd in
  Alcotest.(check bool) "says concurrent" true
    (Test_util.contains s' "concurrent")

let test_explain_concurrent () =
  let r = Recorder.create ~n:2 () in
  let a = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let b = acc r ~t:2. ~pid:1 ~kind:Event.Write ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check bool) "concurrent" true
    (Test_util.contains (Trace.explain t ~first:a ~second:b) "Lemma 1")

(* ---------- export ---------- *)

let small_trace () =
  let r = Recorder.create ~n:2 () in
  let _ = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 2) in
  let _ = Recorder.lock_acquire r ~time:1.5 ~pid:1 ~lock:"m" in
  let _ = acc r ~t:2. ~pid:1 ~kind:Event.Read ~target:(reg 1 1) in
  let _ = Recorder.lock_release r ~time:2.5 ~pid:1 ~lock:"m" in
  let _ = acc r ~t:3. ~pid:1 ~kind:Event.Atomic_update ~target:(reg 5 1) in
  Recorder.finish r

let test_export_summary () =
  let s = Export.summary (small_trace ()) in
  Alcotest.(check int) "events" 5 s.Export.events;
  Alcotest.(check int) "reads" 1 s.Export.reads;
  Alcotest.(check int) "writes" 1 s.Export.writes;
  Alcotest.(check int) "atomics" 1 s.Export.atomics;
  Alcotest.(check int) "syncs" 2 s.Export.syncs;
  Alcotest.(check (float 1e-9)) "span" 2.0 s.Export.span;
  (* the unsynchronized write/read pair on word 1 *)
  Alcotest.(check int) "race pairs" 1 s.Export.race_pairs

let test_export_csv_shape () =
  let csv = Export.to_csv (small_trace ()) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 5 rows" 6 (List.length lines);
  Alcotest.(check bool) "header" true
    (Test_util.contains (List.hd lines) "id,time,pid");
  Alcotest.(check bool) "has atomic row" true (Test_util.contains csv "atomic");
  Alcotest.(check bool) "has lock row" true
    (Test_util.contains csv "lock-acquire");
  let races = Export.races_to_csv (small_trace ()) in
  Alcotest.(check int) "race csv rows" 2
    (List.length (String.split_on_char '\n' (String.trim races)))

let test_export_csv_escaping () =
  let r = Recorder.create ~n:1 () in
  let _ =
    Recorder.access r ~time:0. ~pid:0 ~kind:Event.Write ~target:(reg 0 1)
      ~label:"has,comma" ()
  in
  let csv = Export.to_csv (Recorder.finish r) in
  Alcotest.(check bool) "quoted" true (Test_util.contains csv "\"has,comma\"")

(* ---------- spacetime ---------- *)

let test_spacetime_renders () =
  let s =
    Spacetime.render ~n:3
      ~arrows:
        [
          {
            Spacetime.send_time = 0.;
            recv_time = 1.;
            src = 0;
            dst = 1;
            label = "put#0";
          };
        ]
      ~marks:[ { Spacetime.time = 0.5; pid = 2; text = "compute" } ]
      ()
  in
  Alcotest.(check bool) "has header" true (Test_util.contains s "P2");
  Alcotest.(check bool) "has send" true (Test_util.contains s "put#0 -->P1");
  Alcotest.(check bool) "has recv" true (Test_util.contains s "P0-->put#0");
  Alcotest.(check bool) "has mark" true (Test_util.contains s "compute")

let test_empty_trace () =
  let t = Recorder.finish (Recorder.create ~n:2 ()) in
  Alcotest.(check int) "no events" 0 (Trace.length t);
  Alcotest.(check int) "no races" 0 (List.length (Trace.races t));
  let s = Export.summary t in
  Alcotest.(check (float 1e-9)) "zero span" 0. s.Export.span

let test_trace_vector_clock_bounds () =
  let t = Recorder.finish (Recorder.create ~n:2 ()) in
  Alcotest.check_raises "oob" (Invalid_argument "Trace.vector_clock")
    (fun () -> ignore (Trace.vector_clock t 0))

let test_spacetime_self_arrow () =
  let s =
    Spacetime.render ~n:2
      ~arrows:
        [
          {
            Spacetime.send_time = 0.;
            recv_time = 0.1;
            src = 1;
            dst = 1;
            label = "loopback";
          };
        ]
      ~marks:[] ()
  in
  Alcotest.(check bool) "rendered as self" true
    (Test_util.contains s "loopback (self)")

let test_spacetime_validates () =
  Alcotest.check_raises "bad pid"
    (Invalid_argument "Spacetime.render: pid out of range") (fun () ->
      ignore
        (Spacetime.render ~n:1 ~arrows:[]
           ~marks:[ { Spacetime.time = 0.; pid = 3; text = "x" } ]
           ()))

let () =
  Alcotest.run "trace"
    [
      ("event", [ Alcotest.test_case "conflict" `Quick test_event_conflict ]);
      ( "happens-before",
        [
          Alcotest.test_case "program order" `Quick test_program_order;
          Alcotest.test_case "reads-from" `Quick test_reads_from_edge;
          Alcotest.test_case "unwritten read" `Quick test_read_of_unwritten_has_no_edge;
          Alcotest.test_case "last writer" `Quick test_last_writer_wins;
          Alcotest.test_case "lock edges" `Quick test_lock_edges;
          Alcotest.test_case "different locks" `Quick test_different_locks_do_not_order;
          Alcotest.test_case "rmw serialization" `Quick
            test_rmw_serialization_orders_the_atomic;
          Alcotest.test_case "rmw release point" `Quick test_rmw_release_point;
          Alcotest.test_case "barrier" `Quick test_barrier_orders_phases;
          Alcotest.test_case "barrier generations" `Quick test_barrier_generations_independent;
        ] );
      ( "races",
        [
          Alcotest.test_case "found" `Quick test_races_found;
          Alcotest.test_case "read-read" `Quick test_read_read_not_a_race;
          Alcotest.test_case "racy ids" `Quick test_racy_access_ids;
          Alcotest.test_case "vector clocks" `Quick test_vector_clock_shape;
          Alcotest.test_case "build validation" `Quick test_build_rejects_forward_edges;
          Alcotest.test_case "to_dot" `Quick test_to_dot_mentions_events;
        ] );
      ( "export",
        [
          Alcotest.test_case "summary" `Quick test_export_summary;
          Alcotest.test_case "csv shape" `Quick test_export_csv_shape;
          Alcotest.test_case "csv escaping" `Quick test_export_csv_escaping;
        ] );
      ( "spacetime",
        [
          Alcotest.test_case "renders" `Quick test_spacetime_renders;
          Alcotest.test_case "validates" `Quick test_spacetime_validates;
          Alcotest.test_case "self arrow" `Quick test_spacetime_self_arrow;
          Alcotest.test_case "empty trace" `Quick test_empty_trace;
          Alcotest.test_case "clock bounds" `Quick test_trace_vector_clock_bounds;
          Alcotest.test_case "explain ordered" `Quick test_explain_ordered_path;
          Alcotest.test_case "explain concurrent" `Quick test_explain_concurrent;
        ] );
    ]
