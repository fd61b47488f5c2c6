(* Tests for dsm_core: the paper's detection algorithm on the figure
   scenarios of §4, the ablations, and equivalence with the offline
   ground truth. *)

open Dsm_sim
open Dsm_memory
open Dsm_core
module Machine = Dsm_rdma.Machine

let make ?(n = 3) ?config ?seed () =
  let sim = Engine.create ?seed () in
  let m =
    Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 1.0) ()
  in
  let d = Detector.create m ?config () in
  (m, d)

let expect_completed m =
  match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "blocked with %d processes" k
  | _ -> Alcotest.fail "simulation did not complete"

let races d = Report.count (Detector.report d)

(* Write [v] into process [pid]'s fresh private buffer. *)
let private_buf m ~pid v =
  let r = Machine.alloc_private m ~pid ~len:(Array.length v) () in
  Dsm_memory.Node_memory.write (Machine.node m pid) r v;
  r

(* ---------- Figure 5a: two concurrent puts race ---------- *)

let scenario_5a config =
  let m, d = make ~config () in
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  Machine.spawn m ~pid:1 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2 |]) ~dst:a);
  expect_completed m;
  d

let test_fig5a_concurrent_puts () =
  let d = scenario_5a Config.default in
  Alcotest.(check int) "race detected" 1 (races d)

(* ---------- Figure 5b: causally ordered accesses do not race ---------- *)

let test_fig5b_program_order () =
  let m, d = make () in
  let a = Detector.alloc_shared d ~pid:1 ~name:"a" ~len:1 () in
  Machine.spawn m ~pid:2 (fun p ->
      (* m1: get a; m3: put a — ordered by program order through the
         reader's clock. *)
      let buf = Machine.alloc_private m ~pid:2 ~len:1 () in
      Detector.get d p ~src:a ~dst:buf;
      Detector.put d p ~src:buf ~dst:a);
  expect_completed m;
  Alcotest.(check int) "no race" 0 (races d)

let test_fig5b_cross_process_via_barrier () =
  let m, d = make () in
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 5 |]) ~dst:a;
      (* Model a synchronization point (the PGAS barrier calls this). *)
      Detector.barrier_sync d);
  Machine.spawn m ~pid:1 (fun p ->
      (* Run well after the barrier. *)
      Machine.compute p 100.0;
      let buf = Machine.alloc_private m ~pid:1 ~len:1 () in
      Detector.get d p ~src:a ~dst:buf);
  expect_completed m;
  Alcotest.(check int) "ordered through sync" 0 (races d)

(* ---------- Figure 5c: unrelated message does not order puts ---------- *)

let test_fig5c_intermediary_does_not_order () =
  let m, d = make () in
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  let c = Detector.alloc_shared d ~pid:0 ~name:"c" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      (* m1 *)
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 10.0;
      (* m2: P1 writes c on P0 — it never READS anything P0 wrote, so no
         causal edge towards P1 is created... *)
      Detector.put d p ~src:(private_buf m ~pid:1 [| 9 |]) ~dst:c;
      (* ...m3: therefore this put is concurrent with m1: race. *)
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2 |]) ~dst:a);
  expect_completed m;
  Alcotest.(check int) "race detected despite m2" 1 (races d)

(* ---------- Figure 4: concurrent reads ---------- *)

let scenario_fig4 config =
  let m, d = make ~config () in
  let a = Detector.alloc_shared d ~pid:0 ~name:"a" ~len:1 () in
  (* Initialize a before any remote access, from P0 itself. *)
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 42 |]) ~dst:a;
      Detector.barrier_sync d);
  let reader pid =
    Machine.spawn m ~pid (fun p ->
        Machine.compute p 50.0;
        let buf = Machine.alloc_private m ~pid ~len:1 () in
        Detector.get d p ~src:a ~dst:buf)
  in
  reader 1;
  reader 2;
  expect_completed m;
  d

let test_fig4_concurrent_reads_no_race_with_w () =
  let d = scenario_fig4 Config.default in
  Alcotest.(check int) "write clock: no false positive" 0 (races d)

let test_fig4_false_positive_without_w () =
  let d = scenario_fig4 { Config.default with Config.use_write_clock = false } in
  Alcotest.(check bool) "single clock flags read/read" true (races d >= 1);
  (* And the signals are against the general-purpose clock. *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "against V" true
        (r.Report.against = Report.General_clock))
    (Report.races (Detector.report d))

(* ---------- write-read race is found even with W ---------- *)

let test_write_read_race_detected () =
  let m, d = make () in
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 30.0;
      (* Later in wall time but causally unordered: still a race. *)
      let buf = Machine.alloc_private m ~pid:1 ~len:1 () in
      Detector.get d p ~src:a ~dst:buf);
  expect_completed m;
  Alcotest.(check int) "flagged" 1 (races d)

(* ---------- ablation: transports agree ---------- *)

let test_transports_agree_on_verdicts () =
  let run transport =
    let d =
      scenario_5a { Config.default with Config.transport } in
    races d
  in
  let inline = run Config.Inline in
  let piggy = run Config.Piggyback_txn in
  let explicit = run Config.Explicit_txn in
  Alcotest.(check int) "inline = piggyback" piggy inline;
  Alcotest.(check int) "piggyback = explicit" explicit piggy;
  Alcotest.(check int) "all detect" 1 piggy

let test_explicit_costs_meta_messages () =
  let d =
    scenario_5a { Config.default with Config.transport = Config.Explicit_txn }
  in
  Alcotest.(check bool) "clock control messages flowed" true
    (Detector.meta_messages d > 0);
  let d' = scenario_5a Config.default in
  Alcotest.(check int) "piggyback needs none" 0 (Detector.meta_messages d')

let test_piggyback_ships_clock_words () =
  (* Under the default Piggyback_txn transport each put is one lock
     round trip plus the data message, and of those only Lock_granted
     and Put carry clocks. Every frame here is first-on-its-edge, so no
     delta base exists and the adaptive (default Delta_wire) encoder
     ships self-contained sparse frames: the two grants carry node 2's
     still-zero clock (2 payload + tag + seq = 4 words each), the two
     puts a single-entry sender clock (4 payload + tag + seq = 6 words
     each) — 20 words in total. *)
  let d = scenario_5a Config.default in
  Alcotest.(check int) "clock words" 20 (Detector.clock_words_shipped d);
  let _, sparse, delta = Machine.clock_encodings (Detector.machine d) in
  Alcotest.(check int) "self-contained sparse frames" 4 sparse;
  Alcotest.(check int) "no deltas without a base" 0 delta

(* ---------- ablation: Lamport clocks detect nothing ---------- *)

let test_lamport_misses_races () =
  let d =
    scenario_5a { Config.default with Config.clock_mode = Config.Lamport_only }
  in
  Alcotest.(check int) "scalar clocks are blind" 0 (races d)

(* ---------- granularity ---------- *)

let test_unregistered_variable_rejected () =
  let m, d = make () in
  let a = Machine.alloc_public m ~pid:2 ~len:1 () in
  (* not registered *)
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  match Machine.run m with
  | exception Engine.Process_failure (_, Failure msg) ->
      Alcotest.(check bool) "explains" true
        (Test_util.contains msg "unregistered shared data")
  | _ -> Alcotest.fail "expected a failure about unregistered data"

let test_word_granularity_needs_no_registration () =
  let m, d =
    make ~config:{ Config.default with Config.granularity = Config.Word } ()
  in
  let a = Machine.alloc_public m ~pid:2 ~len:4 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1; 1; 1; 1 |]) ~dst:a);
  Machine.spawn m ~pid:1 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2; 2; 2; 2 |]) ~dst:a);
  expect_completed m;
  (* 4 overlapping word granules, each signalling once at the second put *)
  Alcotest.(check int) "four word-level signals" 4 (races d)

let test_block_granularity_false_sharing () =
  (* Two writes to DISJOINT words race at block granularity but not at
     word granularity: the classic false-sharing artifact. *)
  let run granularity =
    let m, d = make ~config:{ Config.default with Config.granularity } () in
    let a = Machine.alloc_public m ~pid:2 ~len:8 () in
    let sub offset =
      Addr.region ~pid:2 ~space:Addr.Public ~offset ~len:1
    in
    Machine.spawn m ~pid:0 (fun p ->
        Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:(sub 0));
    Machine.spawn m ~pid:1 (fun p ->
        Detector.put d p ~src:(private_buf m ~pid:1 [| 2 |]) ~dst:(sub 7));
    ignore a;
    expect_completed m;
    races d
  in
  Alcotest.(check int) "word: clean" 0 (run Config.Word);
  Alcotest.(check int) "block8: false sharing" 1 (run (Config.Block 8))

let test_register_overlap_rejected () =
  let _, d = make () in
  let _ = Detector.alloc_shared d ~pid:0 ~len:4 () in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Clock_store.register: overlaps a registered variable")
    (fun () ->
      Detector.register d (Addr.region ~pid:0 ~space:Addr.Public ~offset:2 ~len:2))

let test_access_spanning_two_variables () =
  (* One put covering two registered variables checks both granules. *)
  let m, d = make () in
  let x = Detector.alloc_shared d ~pid:2 ~name:"x" ~len:2 () in
  let _y = Detector.alloc_shared d ~pid:2 ~name:"y" ~len:2 () in
  let span =
    Addr.region ~pid:2 ~space:Addr.Public ~offset:x.Addr.base.offset ~len:4
  in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1; 1; 1; 1 |]) ~dst:span);
  Machine.spawn m ~pid:1 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2; 2; 2; 2 |]) ~dst:span);
  expect_completed m;
  (* the second put signals once per covered variable *)
  Alcotest.(check int) "one signal per variable" 2 (races d)

let test_partially_registered_access_rejected () =
  let m, d = make () in
  let x = Detector.alloc_shared d ~pid:2 ~name:"x" ~len:2 () in
  ignore (Machine.alloc_public m ~pid:2 ~len:2 ()) (* unregistered hole *);
  let span =
    Addr.region ~pid:2 ~space:Addr.Public ~offset:x.Addr.base.offset ~len:4
  in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1; 1; 1; 1 |]) ~dst:span);
  match Machine.run m with
  | exception Engine.Process_failure (_, Failure msg) ->
      Alcotest.(check bool) "explains" true
        (Test_util.contains msg "unregistered")
  | _ -> Alcotest.fail "expected rejection of the partly covered access"

let test_report_csv () =
  let d = scenario_5a Config.default in
  let csv = Report.to_csv (Detector.report d) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 1 row" 2 (List.length lines);
  Alcotest.(check bool) "header columns" true
    (Test_util.contains (List.hd lines) "accessor_clock");
  Alcotest.(check bool) "row mentions the writer kind" true
    (Test_util.contains csv ",write,")

let test_report_suppression () =
  (* §4.4: intentional races are acknowledged, not silenced wholesale. *)
  let m, d = make ~n:4 () in
  let intentional = Detector.alloc_shared d ~pid:3 ~name:"mw" ~len:1 () in
  let accidental = Detector.alloc_shared d ~pid:3 ~name:"bug" ~len:1 () in
  Report.suppress (Detector.report d) intentional;
  for pid = 0 to 2 do
    Machine.spawn m ~pid (fun p ->
        Detector.put d p ~src:(private_buf m ~pid [| pid |]) ~dst:intentional;
        Detector.put d p ~src:(private_buf m ~pid [| pid |]) ~dst:accidental)
  done;
  expect_completed m;
  (* Only the unsuppressed variable counts... *)
  List.iter
    (fun r ->
      Alcotest.(check int) "signals only on the bug"
        accidental.Addr.base.offset r.Report.granule.Addr.base.offset)
    (Report.races (Detector.report d));
  Alcotest.(check int) "bug signals" 2 (races d);
  (* ...but the intentional ones are still on record. *)
  Alcotest.(check int) "suppressed recorded" 2
    (List.length (Report.suppressed (Detector.report d)))

(* ISSUE 9 satellite: suppressing a region must also retroactively move
   already-signalled races out of the live set — count, races and
   grouped stay consistent, and the moved signals remain on record. *)
let test_report_suppress_after_signal () =
  let m, d = make ~n:4 () in
  let intentional = Detector.alloc_shared d ~pid:3 ~name:"mw" ~len:1 () in
  let accidental = Detector.alloc_shared d ~pid:3 ~name:"bug" ~len:1 () in
  for pid = 0 to 2 do
    Machine.spawn m ~pid (fun p ->
        Detector.put d p ~src:(private_buf m ~pid [| pid |]) ~dst:intentional;
        Detector.put d p ~src:(private_buf m ~pid [| pid |]) ~dst:accidental)
  done;
  expect_completed m;
  let report = Detector.report d in
  Alcotest.(check int) "both variables signalled" 4 (Report.count report);
  Report.suppress report intentional;
  Alcotest.(check int) "count excludes the suppressed granule" 2
    (Report.count report);
  Alcotest.(check int) "list agrees with count" (Report.count report)
    (List.length (Report.races report));
  List.iter
    (fun r ->
      Alcotest.(check int) "live races only on the bug"
        accidental.Addr.base.offset r.Report.granule.Addr.base.offset)
    (Report.races report);
  Alcotest.(check int) "moved to suppressed" 2
    (List.length (Report.suppressed report));
  let grouped_total =
    List.fold_left (fun a g -> a + g.Report.g_count) 0 (Report.grouped report)
  in
  Alcotest.(check int) "grouped covers exactly the live races" 2 grouped_total

(* ISSUE 9 satellite: the CSV gained an event_id column joining each
   signal to its recorded trace event; without tracing the cell is
   empty but the column is always there. *)
let test_report_csv_event_id () =
  let d = scenario_5a Config.default in
  let csv = Report.to_csv (Detector.report d) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  let header = List.hd lines in
  Alcotest.(check bool) "event_id column" true
    (Test_util.contains header ",event_id");
  (* field count, ignoring commas inside double-quoted clock snapshots *)
  let cols s =
    let n = ref 1 and quoted = ref false in
    String.iter
      (fun c ->
        if c = '"' then quoted := not !quoted
        else if c = ',' && not !quoted then incr n)
      s;
    !n
  in
  List.iter
    (fun line ->
      Alcotest.(check int) "row width matches header" (cols header)
        (cols line))
    lines

let test_report_clear () =
  let d = scenario_5a Config.default in
  Alcotest.(check int) "had one" 1 (races d);
  Report.clear (Detector.report d);
  Alcotest.(check int) "cleared" 0 (races d)

(* ---------- deadlock ablation ---------- *)

let deadlock_scenario ~ordered =
  let m, d =
    make ~n:2
      ~config:{ Config.default with Config.ordered_locking = ordered }
      ()
  in
  let x = Detector.alloc_shared d ~pid:0 ~name:"x" ~len:1 () in
  let y = Detector.alloc_shared d ~pid:1 ~name:"y" ~len:1 () in
  (* P0: put x -> y locks x then y (paper order); P1: put y -> x locks y
     then x. Opposite orders deadlock unless globally ordered. *)
  Machine.spawn m ~pid:0 (fun p -> Detector.put d p ~src:x ~dst:y);
  Machine.spawn m ~pid:1 (fun p -> Detector.put d p ~src:y ~dst:x);
  Machine.run m

let test_paper_lock_order_can_deadlock () =
  match deadlock_scenario ~ordered:false with
  | Engine.Blocked 2 -> ()
  | Engine.Completed ->
      Alcotest.fail "expected the literal src-then-dst order to deadlock"
  | _ -> Alcotest.fail "unexpected outcome"

let test_ordered_locking_avoids_deadlock () =
  match deadlock_scenario ~ordered:true with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "deadlocked with %d" k
  | _ -> Alcotest.fail "unexpected outcome"

(* ---------- counters ---------- *)

let test_counters () =
  let d = scenario_5a Config.default in
  Alcotest.(check int) "two checked ops" 2 (Detector.checked_ops d);
  (* one variable entry (v,w of dim 3) + 3 proc clocks of dim 3 *)
  Alcotest.(check int) "storage words" ((2 * 3) + (3 * 3))
    (Detector.storage_words d)

let test_proc_clock_snapshot () =
  let m, d = make () in
  let a = Detector.alloc_shared d ~pid:1 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
  expect_completed m;
  let c = Detector.proc_clock d 0 in
  Alcotest.(check int) "ticked once" 1 (Dsm_clocks.Vector_clock.entry c 0);
  Alcotest.(check int) "others zero" 0 (Dsm_clocks.Vector_clock.entry c 1)

let test_verdict_stable_under_lock_discipline () =
  (* DESIGN ablation: the NIC's grant discipline reorders lock grants but
     must not change race verdicts. *)
  let run discipline =
    let sim = Engine.create () in
    let m =
      Machine.create sim ~n:3 ~latency:(Dsm_net.Latency.Constant 1.0)
        ~discipline ()
    in
    let d = Detector.create m () in
    let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
    Machine.spawn m ~pid:0 (fun p ->
        Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a);
    Machine.spawn m ~pid:1 (fun p ->
        Detector.put d p ~src:(private_buf m ~pid:1 [| 2 |]) ~dst:a);
    expect_completed m;
    races d
  in
  Alcotest.(check int) "first-fit" 1 (run Dsm_memory.Lock_table.First_fit);
  Alcotest.(check int) "strict head" 1 (run Dsm_memory.Lock_table.Strict_head)

(* ---------- report grouping ---------- *)

let test_report_grouping () =
  let m, d = make ~n:4 () in
  let a = Detector.alloc_shared d ~pid:3 ~name:"a" ~len:1 () in
  let b = Detector.alloc_shared d ~pid:3 ~name:"b" ~len:1 () in
  for pid = 0 to 2 do
    Machine.spawn m ~pid (fun p ->
        Detector.put d p ~src:(private_buf m ~pid [| pid |]) ~dst:a;
        Detector.put d p ~src:(private_buf m ~pid [| pid |]) ~dst:b)
  done;
  expect_completed m;
  let groups = Report.grouped (Detector.report d) in
  Alcotest.(check int) "two raced data" 2 (List.length groups);
  List.iter
    (fun g ->
      Alcotest.(check bool) "several signals collapsed" true
        (g.Report.g_count >= 1);
      Alcotest.(check bool) "accessors sorted" true
        (g.Report.g_pids = List.sort compare g.Report.g_pids))
    groups;
  (* groups ordered by first signal time *)
  match groups with
  | [ g1; g2 ] ->
      Alcotest.(check bool) "time ordered" true
        (g1.Report.g_first_time <= g2.Report.g_first_time)
  | _ -> Alcotest.fail "expected two groups"

(* ---------- checked atomics (extension) ---------- *)

let test_atomics_do_not_race_each_other () =
  let m, d = make ~n:4 () in
  let counter = Detector.alloc_shared d ~pid:0 ~name:"ctr" ~len:1 () in
  for pid = 1 to 3 do
    Machine.spawn m ~pid (fun p ->
        for _ = 1 to 5 do
          ignore (Detector.fetch_add d p ~target:counter.Addr.base ~delta:1)
        done)
  done;
  expect_completed m;
  Alcotest.(check int) "atomics are synchronized" 0 (races d);
  Alcotest.(check (array int)) "no lost updates" [| 15 |]
    (Node_memory.read (Machine.node m 0) counter)

let test_atomic_races_with_plain_write () =
  let m, d = make () in
  let cell = Detector.alloc_shared d ~pid:2 ~name:"cell" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 7 |]) ~dst:cell);
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 30.0;
      ignore (Detector.fetch_add d p ~target:cell.Addr.base ~delta:1));
  expect_completed m;
  Alcotest.(check int) "atomic vs plain write" 1 (races d)

let test_plain_read_races_with_atomic () =
  let m, d = make () in
  let cell = Detector.alloc_shared d ~pid:2 ~name:"cell" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      ignore (Detector.fetch_add d p ~target:cell.Addr.base ~delta:1));
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 30.0;
      let buf = Machine.alloc_private m ~pid:1 ~len:1 () in
      Detector.get d p ~src:cell ~dst:buf);
  expect_completed m;
  Alcotest.(check int) "plain read vs atomic" 1 (races d)

let test_atomic_synchronizes_causality () =
  (* P0 writes data, then atomically sets a flag. P1 atomically reads the
     flag (fetch_add 0), then reads the data: the atomic chain orders the
     data accesses, so only no races at all are expected once the flag
     access is itself atomic on both sides. *)
  let m, d = make () in
  let data = Detector.alloc_shared d ~pid:2 ~name:"data" ~len:1 () in
  let flag = Detector.alloc_shared d ~pid:2 ~name:"flag" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 99 |]) ~dst:data;
      ignore (Detector.fetch_add d p ~target:flag.Addr.base ~delta:1));
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 50.0;
      (* acquire: atomically observe the flag *)
      ignore (Detector.fetch_add d p ~target:flag.Addr.base ~delta:0);
      let buf = Machine.alloc_private m ~pid:1 ~len:1 () in
      Detector.get d p ~src:data ~dst:buf);
  expect_completed m;
  Alcotest.(check int) "atomic flag chain orders the data read" 0 (races d)

(* Regression: lock clocks must be keyed by the lock region's full
   identity, space included. Keyed by bare (pid, offset, len), P0's
   private region aliases the public mutex at the same coordinates, so a
   lock/unlock of the private region would publish P0's clock into the
   shared mutex's clock and falsely order P1's write after P0's —
   hiding a real race. *)
let test_lock_clock_space_collision () =
  let config = { Config.default with Config.lock_aware_clocks = true } in
  let m, d = make ~config () in
  let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
  (* First allocation on node 0 in each space: identical coordinates. *)
  let priv = Machine.alloc_private m ~pid:0 ~len:1 () in
  let mutex = Machine.alloc_public m ~pid:0 ~name:"mutex" ~len:1 () in
  Alcotest.(check int) "aliasing coordinates" priv.Addr.base.offset
    mutex.Addr.base.offset;
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(private_buf m ~pid:0 [| 1 |]) ~dst:a;
      (* Locking one's own private region is a mutual-exclusion no-op;
         it must also be invisible to the public mutex's clock. *)
      let h = Detector.lock d p priv in
      Detector.unlock d p h);
  Machine.spawn m ~pid:1 (fun p ->
      Machine.compute p 50.0;
      let h = Detector.lock d p mutex in
      Detector.put d p ~src:(private_buf m ~pid:1 [| 2 |]) ~dst:a;
      Detector.unlock d p h);
  expect_completed m;
  Alcotest.(check int) "private lock does not order the puts" 1 (races d)

(* ---------- detector vs. offline ground truth ---------- *)

(* Random lock-free workloads at word granularity: the set of granules the
   online detector flags must equal the set of words the offline
   happens-before analysis proves racy (see the derivation in DESIGN.md
   §4 notes; this is the E8/E9 soundness core). *)
let ground_truth_equivalence ~seed =
  let n = 4 in
  let config =
    {
      Config.default with
      Config.granularity = Config.Word;
      Config.record_trace = true;
    }
  in
  let m, d = make ~n ~config ~seed () in
  (* Three shared arrays of 4 words, on nodes 1, 2, 3. *)
  let vars =
    [| Machine.alloc_public m ~pid:1 ~len:4 ();
       Machine.alloc_public m ~pid:2 ~len:4 ();
       Machine.alloc_public m ~pid:3 ~len:4 () |]
  in
  let g = Dsm_sim.Prng.create ~seed:(seed * 7 + 1) in
  for pid = 0 to n - 1 do
    let ops =
      List.init 12 (fun _ ->
          let v = vars.(Dsm_sim.Prng.int g 3) in
          let offset = v.Addr.base.offset + Dsm_sim.Prng.int g 3 in
          let len = 1 + Dsm_sim.Prng.int g 2 in
          let sub =
            Addr.region ~pid:v.Addr.base.pid ~space:Addr.Public ~offset ~len
          in
          let op =
            match Dsm_sim.Prng.int g 5 with
            | 0 -> `Atomic
            | 1 | 2 -> `Put
            | _ -> `Get
          in
          let delay = Dsm_sim.Prng.float g 20.0 in
          (op, sub, len, delay))
    in
    Machine.spawn m ~pid (fun p ->
        List.iter
          (fun (op, (sub : Addr.region), len, delay) ->
            Machine.compute p delay;
            let buf = Machine.alloc_private m ~pid ~len () in
            match op with
            | `Put -> Detector.put d p ~src:buf ~dst:sub
            | `Get -> Detector.get d p ~src:sub ~dst:buf
            | `Atomic ->
                ignore (Detector.fetch_add d p ~target:sub.base ~delta:1))
          ops)
  done;
  expect_completed m;
  let trace =
    match Detector.trace d with Some t -> t | None -> Alcotest.fail "no trace"
  in
  (* Granules flagged online. *)
  let flagged = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let g = r.Report.granule in
      Hashtbl.replace flagged (g.Addr.base.pid, g.Addr.base.offset) ())
    (Report.races (Detector.report d));
  (* Words racy offline. *)
  let truth = Hashtbl.create 16 in
  List.iter
    (fun { Dsm_trace.Trace.first; second } ->
      let overlap_words (a : Dsm_trace.Event.access)
          (b : Dsm_trace.Event.access) =
        let lo = max a.target.base.offset b.target.base.offset in
        let hi =
          min (Addr.last_offset a.target) (Addr.last_offset b.target)
        in
        List.init (hi - lo + 1) (fun i -> (a.target.base.pid, lo + i))
      in
      List.iter
        (fun k -> Hashtbl.replace truth k ())
        (overlap_words first second))
    (Dsm_trace.Trace.races trace);
  let to_sorted_list h =
    Hashtbl.fold (fun k () acc -> k :: acc) h [] |> List.sort compare
  in
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "flagged = ground truth (seed %d)" seed)
    (to_sorted_list truth) (to_sorted_list flagged)

(* 65 and 82794 once failed: the offline trace lacked the RMW
   serialization edges the detector's S clock carries. *)
let test_ground_truth_seeds () =
  List.iter
    (fun seed -> ground_truth_equivalence ~seed)
    [ 1; 2; 3; 4; 5; 6; 65; 82794 ]

(* ---------- Clock_store packed keys ---------- *)

(* The store keys granules by (offset, len) packed into one immediate
   int. Packing must be injective over the documented range — a
   collision would silently share one clock pair between two unrelated
   granules — and anything outside the range must be rejected, not
   wrapped around into a valid-looking key. *)

let cs_max_len = (1 lsl 21) - 1
let cs_max_off = 1 lsl 40

let gen_granule =
  QCheck.Gen.(
    let off =
      oneof
        [
          int_range 0 4096;
          int_range 0 cs_max_off;
          (* overflow-adjacent: right at the top of the packable range *)
          map (fun k -> cs_max_off - k) (int_range 0 64);
        ]
    in
    let len =
      oneof
        [
          int_range 0 64;
          int_range 0 cs_max_len;
          map (fun k -> cs_max_len - k) (int_range 0 64);
        ]
    in
    pair off len)

let arb_granule_pair =
  QCheck.make
    ~print:(fun ((o1, l1), (o2, l2)) ->
      Printf.sprintf "(%d,%d) / (%d,%d)" o1 l1 o2 l2)
    QCheck.Gen.(pair gen_granule gen_granule)

let prop_packed_key_injective =
  QCheck.Test.make ~name:"packed keys: distinct granule = distinct entry"
    ~count:1000 arb_granule_pair (fun ((o1, l1), (o2, l2)) ->
      let store =
        Clock_store.create ~node:0 ~clock_dim:3 ~granularity:Config.Word ()
      in
      let e1 = Clock_store.entry_at store ~offset:o1 ~len:l1 in
      let e2 = Clock_store.entry_at store ~offset:o2 ~len:l2 in
      (e1 == e2) = (o1 = o2 && l1 = l2))

let arb_bad_granule =
  QCheck.make
    ~print:(fun (o, l) -> Printf.sprintf "(%d,%d)" o l)
    QCheck.Gen.(
      oneof
        [
          pair (int_range (-4096) (-1)) (int_range 0 64);
          pair (int_range 0 4096) (int_range (-64) (-1));
          pair (int_range 0 4096)
            (map (fun k -> cs_max_len + 1 + k) (int_range 0 64));
          pair
            (map (fun k -> cs_max_off + 1 + k) (int_range 0 64))
            (int_range 0 64);
        ])

let prop_packed_key_rejects_out_of_range =
  QCheck.Test.make ~name:"packed keys: out-of-range granules rejected"
    ~count:500 arb_bad_granule (fun (offset, len) ->
      let store =
        Clock_store.create ~node:0 ~clock_dim:3 ~granularity:Config.Word ()
      in
      match Clock_store.entry_at store ~offset ~len with
      | _ -> false
      | exception Invalid_argument _ -> true)

(* ---------- Sharded store (ISSUE 5 scaling) ---------- *)

let test_store_shard_validation () =
  List.iter
    (fun shards ->
      match
        Clock_store.create ~node:0 ~clock_dim:4 ~granularity:Config.Word
          ~shards ()
      with
      | _ -> Alcotest.failf "shards = %d accepted" shards
      | exception Invalid_argument _ -> ())
    [ 0; -1; 3; 6; 12 ];
  let s =
    Clock_store.create ~node:0 ~clock_dim:4 ~granularity:Config.Word
      ~shards:8 ()
  in
  Alcotest.(check int) "shard count" 8 (Clock_store.shards s);
  let d =
    Clock_store.create ~node:0 ~clock_dim:4 ~granularity:Config.Word ()
  in
  Alcotest.(check int) "default unsharded" 1 (Clock_store.shards d)

(* Sharding is pure data-structure layout: granule identity, lazy
   creation, counters and iteration order are bit-identical between an
   unsharded store and an 8-way sharded one. *)
let test_store_sharding_invisible () =
  let mk shards =
    Clock_store.create ~node:0 ~clock_dim:4 ~granularity:Config.Word ~shards
      ()
  in
  let s1 = mk 1 and s8 = mk 8 in
  (* offsets straddling several 64-word address ranges *)
  let offsets = [ 0; 1; 63; 64; 65; 130; 1024; 4095 ] in
  List.iter
    (fun off ->
      List.iter
        (fun s ->
          let e = Clock_store.entry_at s ~offset:off ~len:1 in
          Dsm_clocks.Vector_clock.tick e.Clock_store.v ~me:(off mod 4))
        [ s1; s8 ])
    offsets;
  Alcotest.(check int) "same entry count" (Clock_store.entries s1)
    (Clock_store.entries s8);
  Alcotest.(check int) "same storage words"
    (Clock_store.storage_words s1)
    (Clock_store.storage_words s8);
  Alcotest.(check int) "same epoch census"
    (Clock_store.epoch_clocks s1)
    (Clock_store.epoch_clocks s8);
  let region =
    Addr.region ~pid:0 ~space:Addr.Public ~offset:60 ~len:10
  in
  Alcotest.(check bool) "same granule walk" true
    (Clock_store.granules s1 region = Clock_store.granules s8 region);
  List.iter
    (fun off ->
      let e1 = Clock_store.entry_at s1 ~offset:off ~len:1 in
      let e8 = Clock_store.entry_at s8 ~offset:off ~len:1 in
      Alcotest.(check bool)
        (Printf.sprintf "clocks at %d agree" off)
        true
        (Dsm_clocks.Vector_clock.equal e1.Clock_store.v e8.Clock_store.v))
    offsets;
  (* hit path returns the same physical entry in both layouts *)
  List.iter
    (fun s ->
      let a = Clock_store.entry_at s ~offset:64 ~len:1 in
      let b = Clock_store.entry_at s ~offset:64 ~len:1 in
      Alcotest.(check bool) "stable physical entry" true (a == b))
    [ s1; s8 ]

let test_store_shard_scratch () =
  let s =
    Clock_store.create ~node:0 ~clock_dim:16 ~granularity:Config.Word
      ~rep:Config.Sparse_vector ~shards:4 ()
  in
  let a = Clock_store.shard_scratch s ~offset:0 in
  let b = Clock_store.shard_scratch s ~offset:63 in
  let c = Clock_store.shard_scratch s ~offset:64 in
  Alcotest.(check bool) "same range, same scratch" true (a == b);
  Alcotest.(check bool) "next range, next shard" true (not (a == c));
  (* round-robin: 4 shards x 64-word ranges wrap at offset 256 *)
  let w = Clock_store.shard_scratch s ~offset:(4 * 64) in
  Alcotest.(check bool) "ranges wrap round-robin" true (a == w);
  Alcotest.(check bool) "scratch in store rep" true
    (Dsm_clocks.Vector_clock.rep a = Dsm_clocks.Vector_clock.Sparse);
  Dsm_clocks.Vector_clock.reset a;
  Dsm_clocks.Vector_clock.tick a ~me:2;
  Alcotest.(check int) "scratch usable after reset" 1
    (Dsm_clocks.Vector_clock.entry a 2)

(* The same equivalence as a property over arbitrary seeds. *)
let prop_ground_truth_equivalence =
  QCheck.Test.make ~name:"online detector = offline HB (random seeds)"
    ~count:25
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 7 100000))
    (fun seed ->
      ground_truth_equivalence ~seed;
      true)

(* ---------- race signals: shared snapshots, cheap serialization ---------- *)

(* One race signal shares the accessor clock's snapshot with the
   provenance entry the access leaves, and the report's [prior] shares
   the prior entry's clock: neither is copied again. *)
let test_race_shares_snapshots () =
  let d = scenario_5a Config.default in
  let report = Detector.report d in
  match Report.races report with
  | [ r ] -> (
      let node = r.Report.granule.Addr.base.pid
      and offset = r.Report.granule.Addr.base.offset
      and len = r.Report.granule.Addr.len in
      match Provenance.history (Detector.provenance d) ~node ~offset ~len with
      | [ newest; older ] -> (
          Alcotest.(check bool) "accessor clock is the noted snapshot" true
            (r.Report.accessor_clock == newest.Provenance.clock);
          match r.Report.prior with
          | Some p ->
              Alcotest.(check bool) "prior clock is the entry's snapshot" true
                (p.Report.p_clock == older.Provenance.clock)
          | None -> Alcotest.fail "race must name its prior endpoint")
      | h -> Alcotest.failf "expected 2 history entries, got %d" (List.length h)
      )
  | rs -> Alcotest.failf "expected one race, got %d" (List.length rs)

(* A fixed report of 64 races at n=4: [to_csv] allocates about the
   bytes it writes, not a [Format] formatter per clock. Serializing this
   report through [Printf] rows and [Format]-printed clocks allocates
   ~950 words per race; the direct writer ~60 (OCaml 5.1, 64-bit). *)
let test_csv_words_per_race () =
  let t = Report.create () in
  for i = 0 to 63 do
    let clock a = Dsm_clocks.Vector_clock.of_array a in
    Report.signal t
      {
        Report.event_id = (if i mod 2 = 0 then Some (1000 + i) else None);
        time = 10.0 +. (float_of_int i *. 1.37);
        accessor = i mod 4;
        kind = (if i mod 3 = 0 then Dsm_trace.Event.Read else Write);
        granule =
          Addr.region ~pid:(i mod 4) ~space:Addr.Public ~offset:(4 * i) ~len:4;
        accessor_clock = clock [| i; 1 + (i mod 7); 0; 12 |];
        datum_clock = clock [| 0; i mod 5; 3 + i; 0 |];
        against = (if i mod 2 = 0 then Report.General_clock else Write_clock);
        prior = None;
      }
  done;
  let go () = ignore (Sys.opaque_identity (Report.to_csv t)) in
  go ();
  let per_race = Test_util.words_allocated go / 64 in
  if per_race > 100 then
    Alcotest.failf "to_csv allocates %d words per race (bound 100)" per_race

(* ---------- provenance keys ---------- *)

let prov_entry ~pid ~kind ~op =
  {
    Provenance.pid;
    kind;
    time = float_of_int op;
    op;
    event_id = -1;
    clock = Dsm_clocks.Vector_clock.of_array [| op; pid |];
  }

(* Offsets past 2^21 words must not spill into the node bits, and a
   length past the key's range must be refused, not folded into the
   offset: each access's history stays on its own granule. *)
let test_provenance_keys_do_not_alias () =
  let p = Provenance.create ~depth:4 in
  Provenance.note p ~node:0 ~offset:(1 lsl 21) ~len:1
    (prov_entry ~pid:0 ~kind:Dsm_trace.Event.Write ~op:1);
  Alcotest.(check int) "node 1 untouched" 0
    (List.length (Provenance.history p ~node:1 ~offset:0 ~len:1));
  Alcotest.(check int) "kept on its own granule" 1
    (List.length (Provenance.history p ~node:0 ~offset:(1 lsl 21) ~len:1));
  Alcotest.check_raises "length past the key range"
    (Invalid_argument "Clock_store: granule outside packable range")
    (fun () ->
      Provenance.note p ~node:0 ~offset:0 ~len:(1 lsl 21)
        (prov_entry ~pid:0 ~kind:Dsm_trace.Event.Write ~op:2));
  let seen = ref [] in
  Provenance.iter_granules p ~f:(fun ~node ~offset ~len es ->
      seen := (node, offset, len, List.length es) :: !seen);
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "only the noted granule"
    [ ((0, 1 lsl 21), (1, 1)) ]
    (List.map (fun (n, o, l, c) -> ((n, o), (l, c))) !seen)

(* [find_prior] walks the ring in place; it must pick what the
   list-based definition picks: the newest conflicting entry by another
   process that is concurrent with [clock], else the newest conflicting
   one. *)
let test_provenance_find_prior_reference () =
  let reference p ~pid ~write ~clock =
    let candidates =
      List.filter
        (fun (e : Provenance.entry) ->
          e.pid <> pid && (write || e.kind <> Dsm_trace.Event.Read))
        (Provenance.history p ~node:2 ~offset:8 ~len:1)
    in
    match
      List.find_opt
        (fun (e : Provenance.entry) ->
          Dsm_clocks.Vector_clock.concurrent clock e.clock)
        candidates
    with
    | Some e -> Some e
    | None -> ( match candidates with e :: _ -> Some e | [] -> None)
  in
  let g = Prng.create ~seed:11 in
  for round = 0 to 199 do
    let p = Provenance.create ~depth:(1 + (round mod 5)) in
    for op = 1 to Prng.int g 9 do
      Provenance.note p ~node:2 ~offset:8 ~len:1
        {
          (prov_entry ~pid:(Prng.int g 3) ~op
             ~kind:(if Prng.bool g then Dsm_trace.Event.Read else Write))
          with
          clock =
            Dsm_clocks.Vector_clock.of_array
              [| Prng.int g 3; Prng.int g 3; Prng.int g 3 |];
        }
    done;
    let pid = Prng.int g 3 and write = Prng.bool g in
    let clock =
      Dsm_clocks.Vector_clock.of_array
        [| Prng.int g 3; Prng.int g 3; Prng.int g 3 |]
    in
    let got =
      Provenance.find_prior p ~node:2 ~offset:8 ~len:1 ~pid ~write ~clock
    in
    match (got, reference p ~pid ~write ~clock) with
    | None, None -> ()
    | Some a, Some b when a == b -> ()
    | _ -> Alcotest.failf "round %d: find_prior disagrees with reference" round
  done

let () =
  Alcotest.run "core"
    [
      ( "figures",
        [
          Alcotest.test_case "5a concurrent puts" `Quick test_fig5a_concurrent_puts;
          Alcotest.test_case "5b program order" `Quick test_fig5b_program_order;
          Alcotest.test_case "5b via sync" `Quick test_fig5b_cross_process_via_barrier;
          Alcotest.test_case "5c intermediary" `Quick test_fig5c_intermediary_does_not_order;
          Alcotest.test_case "4 reads with W" `Quick test_fig4_concurrent_reads_no_race_with_w;
          Alcotest.test_case "4 reads without W" `Quick test_fig4_false_positive_without_w;
          Alcotest.test_case "write-read race" `Quick test_write_read_race_detected;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "transports agree" `Quick test_transports_agree_on_verdicts;
          Alcotest.test_case "explicit meta messages" `Quick test_explicit_costs_meta_messages;
          Alcotest.test_case "piggyback words" `Quick test_piggyback_ships_clock_words;
          Alcotest.test_case "lamport blind" `Quick test_lamport_misses_races;
        ] );
      ( "granularity",
        [
          Alcotest.test_case "unregistered rejected" `Quick test_unregistered_variable_rejected;
          Alcotest.test_case "word granularity" `Quick test_word_granularity_needs_no_registration;
          Alcotest.test_case "false sharing" `Quick test_block_granularity_false_sharing;
          Alcotest.test_case "register overlap" `Quick test_register_overlap_rejected;
        ] );
      ( "report",
        [
          Alcotest.test_case "grouping" `Quick test_report_grouping;
          Alcotest.test_case "clear" `Quick test_report_clear;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "csv event_id" `Quick test_report_csv_event_id;
          Alcotest.test_case "suppression" `Quick test_report_suppression;
          Alcotest.test_case "suppress after signal" `Quick
            test_report_suppress_after_signal;
        ] );
      ( "granule-coverage",
        [
          Alcotest.test_case "spanning access" `Quick test_access_spanning_two_variables;
          Alcotest.test_case "partial coverage" `Quick test_partially_registered_access_rejected;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "atomic-atomic synchronized" `Quick test_atomics_do_not_race_each_other;
          Alcotest.test_case "atomic vs plain write" `Quick test_atomic_races_with_plain_write;
          Alcotest.test_case "plain read vs atomic" `Quick test_plain_read_races_with_atomic;
          Alcotest.test_case "atomic flag chain" `Quick test_atomic_synchronizes_causality;
        ] );
      ( "locking",
        [
          Alcotest.test_case "paper order deadlocks" `Quick test_paper_lock_order_can_deadlock;
          Alcotest.test_case "ordered locking safe" `Quick test_ordered_locking_avoids_deadlock;
          Alcotest.test_case "discipline-stable verdicts" `Quick test_verdict_stable_under_lock_discipline;
          Alcotest.test_case "lock-clock space collision" `Quick test_lock_clock_space_collision;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "proc clock" `Quick test_proc_clock_snapshot;
        ] );
      ( "race-signal",
        [
          Alcotest.test_case "one shared snapshot" `Quick
            test_race_shares_snapshots;
          Alcotest.test_case "csv words per race" `Quick
            test_csv_words_per_race;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "keys do not alias" `Quick
            test_provenance_keys_do_not_alias;
          Alcotest.test_case "find_prior = list reference" `Quick
            test_provenance_find_prior_reference;
        ] );
      ( "clock-store-keys",
        [
          QCheck_alcotest.to_alcotest prop_packed_key_injective;
          QCheck_alcotest.to_alcotest prop_packed_key_rejects_out_of_range;
        ] );
      ( "clock-store-shards",
        [
          Alcotest.test_case "shard count validation" `Quick
            test_store_shard_validation;
          Alcotest.test_case "sharding invisible" `Quick
            test_store_sharding_invisible;
          Alcotest.test_case "shard scratch" `Quick test_store_shard_scratch;
        ] );
      ( "ground-truth",
        [
          Alcotest.test_case "equivalence on seeds" `Quick test_ground_truth_seeds;
          QCheck_alcotest.to_alcotest prop_ground_truth_equivalence;
        ] );
    ]
