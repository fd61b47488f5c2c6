(* ISSUE 8: delta-encoded clock piggybacks. The wire encoding is an
   accounting-only knob: schedules, race sets, fingerprints and repro
   tokens must be bit-identical across --clock-wire settings, while the
   adaptive delta encoding must ship strictly fewer clock words than
   always-dense. This suite holds the live stack to both halves — the
   machine-level directed tests (retransmit fallback, reorder
   degradation) and the 50-walk explorer differential. *)

open Dsm_sim
open Dsm_memory
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Explore = Dsm_explore.Explore
module Token = Dsm_explore.Token
module Fault = Dsm_net.Fault
module Metrics = Dsm_obs.Metrics

(* The regime the delta encoding is for: [workers] active processes in
   an [n]-process machine ([workers << n] makes dense frames pay for
   every silent pid), whose clocks first get enriched with each other's
   entries through a mutex-protected shared cell, and which then settle
   into disjoint puts where only their own component advances between
   consecutive messages on an edge — many live entries, few changed
   ones, so delta beats sparse beats dense. Race-free by construction
   (the shared cell is lock-protected, the put targets disjoint). *)
let run_puts ?faults ?reliability ~wire ~n ~workers ~rounds ~seed () =
  let sim = Engine.create ~seed () in
  let m =
    Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 2.0) ?faults
      ?reliability ()
  in
  let d =
    Detector.create m
      ~config:
        {
          Config.default with
          Config.granularity = Config.Word;
          clock_wire = wire;
        }
      ()
  in
  let var = Machine.alloc_public m ~pid:0 ~name:"x" ~len:n () in
  let shared = Machine.alloc_public m ~pid:0 ~name:"c" ~len:1 () in
  let mu = Machine.alloc_public m ~pid:0 ~name:"mu" ~len:1 () in
  for pid = 1 to workers do
    Machine.spawn m ~pid (fun p ->
        let buf = Machine.alloc_private m ~pid ~len:1 () in
        let scratch = Machine.alloc_private m ~pid ~len:1 () in
        (* enrichment: the lock clock carries every previous holder's
           entries into this worker's clock *)
        for _ = 1 to 2 do
          let h = Detector.lock d p mu in
          Detector.get d p ~src:shared ~dst:scratch;
          Detector.put d p ~src:scratch ~dst:shared;
          Detector.unlock d p h
        done;
        (* steady state: disjoint targets, one component advancing *)
        let dst =
          Addr.region ~pid:0 ~space:Addr.Public
            ~offset:(var.Addr.base.offset + pid) ~len:1
        in
        for _ = 1 to rounds do
          Machine.compute p 1.0;
          Detector.put d p ~src:buf ~dst
        done)
  done;
  (match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "run blocked (%d)" k
  | _ -> Alcotest.fail "run did not complete");
  (m, d)

(* ---------- wire sizes across encodings ---------- *)

(* Same program under the three encodings: verdicts and nominal traffic
   are bit-identical, and the true clock bytes are strictly ordered
   delta < sparse < dense — at n = 8 each clock has few live entries
   (sparse wins over dense) and between consecutive messages on a warm
   edge few entries change (delta wins over sparse). *)
let test_wire_sizes_ordered () =
  let run wire =
    let m, d = run_puts ~wire ~n:16 ~workers:3 ~rounds:8 ~seed:11 () in
    ( Report.to_csv (Detector.report d),
      Machine.fabric_messages m,
      Machine.fabric_words m,
      Detector.clock_words_shipped d )
  in
  let races_de, msgs_de, words_de, clock_de = run Config.Dense_wire in
  let races_sp, msgs_sp, words_sp, clock_sp = run Config.Sparse_wire in
  let races_dl, msgs_dl, words_dl, clock_dl = run Config.Delta_wire in
  Alcotest.(check string) "sparse race set" races_de races_sp;
  Alcotest.(check string) "delta race set" races_de races_dl;
  Alcotest.(check int) "sparse messages" msgs_de msgs_sp;
  Alcotest.(check int) "delta messages" msgs_de msgs_dl;
  Alcotest.(check int) "sparse nominal words" words_de words_sp;
  Alcotest.(check int) "delta nominal words" words_de words_dl;
  Alcotest.(check bool)
    (Printf.sprintf "sparse < dense clock words (%d < %d)" clock_sp clock_de)
    true (clock_sp < clock_de);
  Alcotest.(check bool)
    (Printf.sprintf "delta < sparse clock words (%d < %d)" clock_dl clock_sp)
    true (clock_dl < clock_sp)

(* The encoder is adaptive: under Delta_wire it must actually emit
   delta-tagged frames once the edges are warm, and every piggyback is
   one of the three tags. *)
let test_delta_frames_emitted () =
  let m, _ = run_puts ~wire:Config.Delta_wire ~n:8 ~workers:3 ~rounds:8 ~seed:2 () in
  let dense, sparse, delta = Machine.clock_encodings m in
  Alcotest.(check bool)
    (Printf.sprintf "deltas on warm edges (%d dense, %d sparse, %d delta)"
       dense sparse delta)
    true (delta > 0);
  Alcotest.(check bool) "self-contained frames too" true (sparse + dense > 0)

(* ---------- retransmit fallback ---------- *)

(* Reliable transport over a dup+drop fabric: retransmitted frames that
   carried a delta piggyback must be re-encoded self-contained (the
   receiver's edge cache may have moved past the delta's base by
   delivery time). The run still completes, and whatever the faulted
   schedule makes the detector report, it reports bit-identically under
   the dense encoding — retransmission must not let the wire form leak
   into verdicts. *)
let test_retransmit_fallback () =
  let faulted wire =
    run_puts
      ~faults:(Fault.of_string "dup=0.4,drop=0.3")
      ~reliability:(Machine.reliability ())
      ~wire ~n:8 ~workers:3 ~rounds:8 ~seed:6 ()
  in
  let m, d = faulted Config.Delta_wire in
  Alcotest.(check bool)
    "the plan actually forced retransmits" true
    (Machine.transport_retransmits m > 0);
  let _, _, delta = Machine.clock_encodings m in
  Alcotest.(check bool) "deltas were in flight" true (delta > 0);
  Alcotest.(check bool)
    (Printf.sprintf "delta retransmits fell back (%d)"
       (Machine.clock_retransmit_fallbacks m))
    true
    (Machine.clock_retransmit_fallbacks m > 0);
  let m', d' = faulted Config.Dense_wire in
  Alcotest.(check int) "no fallbacks under dense" 0
    (Machine.clock_retransmit_fallbacks m');
  Alcotest.(check string) "race set blind to the encoding"
    (Report.to_csv (Detector.report d'))
    (Report.to_csv (Detector.report d));
  Alcotest.(check int) "retransmit schedule blind to the encoding"
    (Machine.transport_retransmits m')
    (Machine.transport_retransmits m)

(* ---------- reorder degradation ---------- *)

(* FIFO-bypass reordering without the reliable transport's resequencing
   underneath it would hand the decoder deltas against the wrong base,
   so the encoder must refuse to mint deltas at all: every piggyback on
   this run is self-contained. *)
let test_reorder_degrades_to_self_contained () =
  let m, d =
    run_puts
      ~faults:(Fault.of_string "reorder=0.5")
      ~wire:Config.Delta_wire ~n:8 ~workers:3 ~rounds:6 ~seed:9 ()
  in
  let dense, sparse, delta = Machine.clock_encodings m in
  Alcotest.(check int) "no deltas on a reordering fabric" 0 delta;
  Alcotest.(check bool) "piggybacks still flowed" true (dense + sparse > 0);
  (* whatever the reordered schedule produces, dense produces too *)
  let _, d' =
    run_puts
      ~faults:(Fault.of_string "reorder=0.5")
      ~wire:Config.Dense_wire ~n:8 ~workers:3 ~rounds:6 ~seed:9 ()
  in
  Alcotest.(check string) "race set blind to the encoding"
    (Report.to_csv (Detector.report d'))
    (Report.to_csv (Detector.report d))

(* With the reliable transport underneath, the same reordering fabric is
   resequenced before clock absorption, so deltas are allowed again. *)
let test_reliable_reorder_keeps_deltas () =
  let m, _ =
    run_puts
      ~faults:(Fault.of_string "reorder=0.5")
      ~reliability:(Machine.reliability ())
      ~wire:Config.Delta_wire ~n:8 ~workers:3 ~rounds:8 ~seed:9 ()
  in
  let _, _, delta = Machine.clock_encodings m in
  Alcotest.(check bool) "deltas under reliable resequencing" true (delta > 0)

(* ---------- 50-walk explorer differential ---------- *)

let walks = 50

let hist_sum snap name =
  match List.assoc_opt name snap.Metrics.histograms with
  | Some h -> h.Metrics.sum
  | None -> 0

let strip_wire_instruments snap =
  {
    snap with
    Metrics.histograms =
      List.filter
        (fun (name, _) ->
          name <> "net.wire_words" && name <> "net.clock_words")
        snap.Metrics.histograms;
  }

(* The same 50 walk schedules under each encoding: per-walk fingerprints,
   canonical summaries and race counts are bit-identical, every metric
   other than the wire accounting itself agrees, and the delta encoding
   ships strictly fewer clock words than dense over the batch. *)
let test_explore_differential () =
  let batch wire =
    let metrics = Metrics.create () in
    let ctx =
      Explore.create_ctx ~metrics
        {
          Explore.default_spec with
          Explore.scenario = "workload:master-worker-racy";
          n = 3;
          seed = 4;
          clock_wire = wire;
        }
    in
    let results =
      List.init walks (fun i ->
          let r = Explore.run_once_in ctx (Explore.Walk i) in
          ( Explore.outcome_to_string r.Explore.outcome,
            r.Explore.fingerprint,
            r.Explore.canon,
            r.Explore.races ))
    in
    (results, Metrics.snapshot metrics)
  in
  let res_de, snap_de = batch Config.Dense_wire in
  let res_sp, snap_sp = batch Config.Sparse_wire in
  let res_dl, snap_dl = batch Config.Delta_wire in
  List.iteri
    (fun i ((o, f, c, r), ((o', f', c', r'), (o'', f'', c'', r''))) ->
      Alcotest.(check string) (Printf.sprintf "walk %d outcome" i) o o';
      Alcotest.(check string) (Printf.sprintf "walk %d outcome" i) o o'';
      Alcotest.(check string) (Printf.sprintf "walk %d fingerprint" i) f f';
      Alcotest.(check string) (Printf.sprintf "walk %d fingerprint" i) f f'';
      Alcotest.(check string) (Printf.sprintf "walk %d canon" i) c c';
      Alcotest.(check string) (Printf.sprintf "walk %d canon" i) c c'';
      Alcotest.(check int) (Printf.sprintf "walk %d races" i) r r';
      Alcotest.(check int) (Printf.sprintf "walk %d races" i) r r'')
    (List.combine res_de (List.combine res_sp res_dl));
  (* everything but the wire accounting is blind to the encoding —
     detector.check included, so check counts match exactly *)
  Alcotest.(check bool) "sparse metrics equal modulo wire" true
    (strip_wire_instruments snap_de = strip_wire_instruments snap_sp);
  Alcotest.(check bool) "delta metrics equal modulo wire" true
    (strip_wire_instruments snap_de = strip_wire_instruments snap_dl);
  let de = hist_sum snap_de "net.clock_words"
  and sp = hist_sum snap_sp "net.clock_words"
  and dl = hist_sum snap_dl "net.clock_words" in
  Alcotest.(check bool)
    (Printf.sprintf "delta < dense clock words over %d walks (%d < %d)" walks
       dl de)
    true (dl < de);
  Alcotest.(check bool)
    (Printf.sprintf "delta <= sparse clock words (%d <= %d)" dl sp)
    true (dl <= sp)

(* ---------- minimized repro tokens ---------- *)

(* The planted-bug spec from the acceptance suite: minimization must
   walk the same shrink path under every encoding and emit the same
   token modulo the [w=] field itself. *)
let test_minimized_token_differential () =
  let base =
    {
      Explore.default_spec with
      Explore.seed = 7;
      faults = Fault.of_string "drop=0.2,dup=0.1";
      reliable = true;
      bug = true;
    }
  in
  let minimized wire =
    let spec = { base with Explore.clock_wire = wire } in
    let stats = Explore.explore_random spec ~runs:64 in
    match stats.Explore.first with
    | None -> Alcotest.fail "planted bug did not violate"
    | Some (_, r) ->
        let mins = Explore.minimize spec r.Explore.decisions in
        let tok = Explore.token_of spec mins in
        (mins, { tok with Token.clock_wire = Config.default.Config.clock_wire })
  in
  let mins_de, tok_de = minimized Config.Dense_wire in
  let mins_dl, tok_dl = minimized Config.Delta_wire in
  Alcotest.(check (list int)) "minimized decisions" mins_de mins_dl;
  Alcotest.(check string) "token modulo wire field" (Token.to_string tok_de)
    (Token.to_string tok_dl)

(* Replaying a token that pins a non-default wire reproduces the same
   fingerprint as the default-wire token of the same run. *)
let test_replay_across_wires () =
  let fp wire =
    let spec = { Explore.default_spec with Explore.clock_wire = wire } in
    match Explore.replay (Explore.token_of spec [ 1; 0; 2 ]) with
    | Error e -> Alcotest.failf "replay failed: %s" e
    | Ok r -> r.Explore.fingerprint
  in
  Alcotest.(check string) "fingerprint blind to wire" (fp Config.Dense_wire)
    (fp Config.Delta_wire)

(* ---------- wire names ---------- *)

(* One name table serves the CLI's --clock-wire and the token's [w=]
   field: every name round-trips, and an unknown one is a clean [Error]
   with each caller's own message. *)
let test_wire_names () =
  List.iter
    (fun w ->
      let name = Config.clock_wire_name w in
      Alcotest.(check bool)
        (name ^ " round-trips")
        true
        (Config.clock_wire_of_name name = Ok w);
      match
        Token.of_string
          (Printf.sprintf
             "dsm1|s=getput|n=2|seed=1|w=%s|f=none|r=0|b=0|me=200000|d=" name)
      with
      | Ok tok ->
          Alcotest.(check string)
            (name ^ " token field")
            name
            (Config.clock_wire_name tok.Token.clock_wire)
      | Error e -> Alcotest.failf "w=%s rejected: %s" name e)
    [ Config.Dense_wire; Config.Sparse_wire; Config.Delta_wire ];
  Alcotest.(check bool)
    "unknown name" true
    (Config.clock_wire_of_name "bogus"
    = Error "unknown clock wire encoding \"bogus\"");
  match
    Token.of_string
      "dsm1|s=getput|n=2|seed=1|w=bogus|f=none|r=0|b=0|me=200000|d="
  with
  | Ok _ -> Alcotest.fail "w=bogus accepted"
  | Error e ->
      Alcotest.(check string)
        "token error" "replay token: w must be dense, sparse or delta, got bogus"
        e

let () =
  Alcotest.run "wire"
    [
      ( "sizes",
        [
          Alcotest.test_case "delta < sparse < dense" `Quick
            test_wire_sizes_ordered;
          Alcotest.test_case "delta frames emitted" `Quick
            test_delta_frames_emitted;
        ] );
      ( "faults",
        [
          Alcotest.test_case "retransmit fallback" `Quick
            test_retransmit_fallback;
          Alcotest.test_case "reorder degrades to self-contained" `Quick
            test_reorder_degrades_to_self_contained;
          Alcotest.test_case "reliable reorder keeps deltas" `Quick
            test_reliable_reorder_keeps_deltas;
        ] );
      ( "differential",
        [
          Alcotest.test_case "50-walk explorer differential" `Slow
            test_explore_differential;
          Alcotest.test_case "minimized token differential" `Slow
            test_minimized_token_differential;
          Alcotest.test_case "replay across wires" `Quick
            test_replay_across_wires;
        ] );
      ("names", [ Alcotest.test_case "wire names" `Quick test_wire_names ]);
    ]
