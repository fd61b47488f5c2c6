(* Cross-representation conformance: the two clock representations
   (the adaptive sparse one and the always-dense oracle) must be
   observably identical — same race set, same message trace, same memory — over
   hundreds of randomized schedules; and batched coherence must be
   detection-invisible: the racy-granule set of an explored workload is
   bit-identical whether or not the transport coalesces. *)

open Dsm_sim
open Dsm_memory
module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Explore = Dsm_explore.Explore
module Probe = Dsm_obs.Probe

(* ------------------------------------------------------------------ *)
(* Part 1: sparse = dense over randomized schedules.                   *)
(* ------------------------------------------------------------------ *)

type fingerprint = {
  races : int;
  race_csv : string; (* every signal with both clocks: the exact race set *)
  messages : int;
  words : int;
  time : float;
  violations : int;
  memory : int list;
  final_clocks : string; (* every process clock, rendered *)
}

(* One random run over [n] processes and [max 3 (n/2)] shared variables:
   puts, gets, atomics (fetch_add / CAS), whole-variable accumulates and
   mutex-protected RMWs. Gets and atomics absorb remote clocks, so at
   larger [n] accessor clocks accumulate many active components and
   cross the sparse representation's dense-promotion threshold — the
   regime Part 1 must also cover, now including RMW S-clock traffic
   across that boundary. *)
let run_once ~clock_rep ~n ~seed ~ops () =
  let sim = Engine.create ~seed () in
  let latency =
    Dsm_net.Latency.Jittered
      { model = Dsm_net.Latency.Constant 1.0; mean_jitter = 2.0 }
  in
  let m = Machine.create sim ~n ~latency () in
  let checker = Coherence.attach m in
  let d =
    Detector.create m
      ~config:
        { Config.default with Config.granularity = Config.Word; clock_rep }
      ()
  in
  let nvars = max 3 (n / 2) in
  let vars =
    Array.init nvars (fun i ->
        Machine.alloc_public m ~pid:(i mod n)
          ~name:(Printf.sprintf "v%d" i)
          ~len:4 ())
  in
  let mutexes =
    Array.init nvars (fun i ->
        Machine.alloc_public m ~pid:(i mod n)
          ~name:(Printf.sprintf "m%d" i)
          ~len:1 ())
  in
  for pid = 0 to n - 1 do
    let g = Prng.create ~seed:(seed + (97 * pid)) in
    let plan =
      List.init ops (fun _ ->
          (Prng.int g 6, Prng.int g nvars, Prng.int g 4, Prng.float g 15.0))
    in
    Machine.spawn m ~pid (fun p ->
        let buf = Machine.alloc_private m ~pid ~len:4 () in
        List.iter
          (fun (op, v, word, think) ->
            Machine.compute p think;
            let var = vars.(v) in
            let target =
              Addr.global ~pid:var.Addr.base.pid ~space:Addr.Public
                ~offset:(var.Addr.base.offset + word)
            in
            match op with
            | 0 -> Detector.put d p ~src:buf ~dst:var
            | 1 -> Detector.get d p ~src:var ~dst:buf
            | 2 -> ignore (Detector.fetch_add d p ~target ~delta:1)
            | 3 ->
                ignore
                  (Detector.cas d p ~target ~expected:0 ~desired:(pid + 1))
            | 4 ->
                (* multi-word RMW: accumulate over the whole variable *)
                let aop =
                  [| Dsm_rdma.Message.Add; Min; Max; Bor |].(word)
                in
                ignore (Detector.accumulate d p ~src:buf ~dst:var ~aop)
            | _ ->
                let h = Detector.lock d p mutexes.(v) in
                let cell =
                  Addr.region ~pid:var.Addr.base.pid ~space:Addr.Public
                    ~offset:(var.Addr.base.offset + word)
                    ~len:1
                in
                let scratch = Machine.alloc_private m ~pid ~len:1 () in
                Detector.get d p ~src:cell ~dst:scratch;
                Detector.put d p ~src:scratch ~dst:cell;
                Detector.unlock d p h)
          plan)
  done;
  (match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "seed %d blocked (%d)" seed k
  | _ -> Alcotest.failf "seed %d did not complete" seed);
  {
    races = Report.count (Detector.report d);
    race_csv = Report.to_csv (Detector.report d);
    messages = Machine.fabric_messages m;
    words = Machine.fabric_words m;
    time = Engine.now sim;
    violations = List.length (Coherence.violations checker);
    memory =
      Array.to_list vars
      |> List.concat_map (fun v ->
             Array.to_list (Node_memory.read (Machine.node m v.Addr.base.pid) v));
    final_clocks =
      String.concat ";"
        (List.init n (fun pid ->
             Dsm_clocks.Vector_clock.to_string (Detector.proc_clock d pid)));
  }

let reps = [ ("dense", Config.Dense_vector); ("sparse", Config.Sparse_vector) ]

let check_conformant ~n ~seed ~ops =
  match
    List.map (fun (name, rep) -> (name, run_once ~clock_rep:rep ~n ~seed ~ops ()))
      reps
  with
  | (_, ref_fp) :: rest ->
      List.iter
        (fun (name, fp) ->
          Alcotest.(check string)
            (Printf.sprintf "n=%d seed %d: %s race set" n seed name)
            ref_fp.race_csv fp.race_csv;
          Alcotest.(check bool)
            (Printf.sprintf "n=%d seed %d: %s full fingerprint" n seed name)
            true (fp = ref_fp))
        rest;
      ref_fp
  | [] -> assert false

(* Directed small-n seeds: mostly-epoch clocks, the adaptive fast path
   (n = 4 promotes epochs straight to dense). *)
let test_conformance_directed () =
  List.iter
    (fun seed ->
      let fp = check_conformant ~n:4 ~seed ~ops:12 in
      Alcotest.(check int)
        (Printf.sprintf "seed %d coherent" seed)
        0 fp.violations)
    [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233; 377; 610; 987 ]

(* Directed promotion-boundary seeds: n = 16 runs the sorted-pairs stage
   with threshold max 4 (n/8) = 4, so any clock with five active
   components has been promoted to dense storage mid-run — sparse must
   survive the round trip. *)
let test_conformance_promotion () =
  List.iter
    (fun seed -> ignore (check_conformant ~n:16 ~seed ~ops:8))
    [ 7; 19; 42; 101; 257 ]

(* Randomized schedules. Together with the directed cases above and the
   batched differential below, the suite covers > 500 schedules; each
   QCheck case is one schedule compared across both representations. *)
let prop_conformant_small =
  QCheck.Test.make ~name:"sparse = dense (n=4)" ~count:380
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1_000 2_000_000))
    (fun seed ->
      ignore (check_conformant ~n:4 ~seed ~ops:8);
      true)

let prop_conformant_wide =
  QCheck.Test.make ~name:"sparse = dense (n=12, past threshold)"
    ~count:50
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1_000 2_000_000))
    (fun seed ->
      ignore (check_conformant ~n:12 ~seed ~ops:6);
      true)

(* ------------------------------------------------------------------ *)
(* Part 2: batched coherence is detection-invisible.                   *)
(* ------------------------------------------------------------------ *)

(* Per-run probe collector: racy granules, check/message/batch counts. *)
type collector = {
  mutable granules : (int * int * int) list; (* (node, offset, len) *)
  mutable checks : int;
  mutable msgs : int;
  mutable flushes : int;
}

let attach_collector ctx =
  let c = { granules = []; checks = 0; msgs = 0; flushes = 0 } in
  Probe.attach (Explore.ctx_probe ctx) (function
    | Probe.Race_signal { node; offset; len; _ } ->
        c.granules <- (node, offset, len) :: c.granules
    | Probe.Detector_check _ -> c.checks <- c.checks + 1
    | Probe.Msg_sent _ -> c.msgs <- c.msgs + 1
    | Probe.Batch_flush _ -> c.flushes <- c.flushes + 1
    | _ -> ());
  c

let reset_collector c =
  c.granules <- [];
  c.checks <- 0;
  c.msgs <- 0;
  c.flushes <- 0

let granule_set c = List.sort_uniq compare c.granules

(* 50 explored schedules of the racy neighbour-push workload, batched
   vs unbatched. The workload is put-only and barrier-free, so its
   racy-granule set is independent of the schedule AND of transport
   batching (see [Dsm_workload.Scale]): per walk, both variants must
   report the identical granule set and per-operation check count, while
   the batched variant ships strictly fewer fabric messages and is the
   only one to flush batches. *)
let test_batched_differential () =
  let spec scenario =
    { Explore.default_spec with Explore.scenario; n = 5; seed = 11 }
  in
  let ctx_plain = Explore.create_ctx (spec "workload:scale") in
  let ctx_batched = Explore.create_ctx (spec "workload:scale-batched") in
  let c_plain = attach_collector ctx_plain in
  let c_batched = attach_collector ctx_batched in
  for walk = 0 to 49 do
    reset_collector c_plain;
    reset_collector c_batched;
    let r_plain = Explore.run_once_in ctx_plain (Explore.Walk walk) in
    let r_batched = Explore.run_once_in ctx_batched (Explore.Walk walk) in
    List.iter
      (fun (name, (r : Explore.run_result)) ->
        Alcotest.(check bool)
          (Printf.sprintf "walk %d: %s completed" walk name)
          true
          (r.Explore.outcome = Explore.Completed);
        Alcotest.(check int)
          (Printf.sprintf "walk %d: %s invariants" walk name)
          0
          (List.length r.Explore.violations))
      [ ("plain", r_plain); ("batched", r_batched) ];
    Alcotest.(check int)
      (Printf.sprintf "walk %d: race count" walk)
      r_plain.Explore.races r_batched.Explore.races;
    Alcotest.(check bool)
      (Printf.sprintf "walk %d: racy granule set" walk)
      true
      (granule_set c_plain = granule_set c_batched);
    Alcotest.(check bool)
      (Printf.sprintf "walk %d: granules observed" walk)
      true
      (granule_set c_plain <> []);
    Alcotest.(check int)
      (Printf.sprintf "walk %d: per-op check count" walk)
      c_plain.checks c_batched.checks;
    Alcotest.(check bool)
      (Printf.sprintf "walk %d: batching coalesced messages (%d < %d)"
         walk c_batched.msgs c_plain.msgs)
      true
      (c_batched.msgs < c_plain.msgs);
    Alcotest.(check bool)
      (Printf.sprintf "walk %d: batch flushes only when batched" walk)
      true
      (c_batched.flushes > 0 && c_plain.flushes = 0)
  done

let () =
  Alcotest.run "conformance"
    [
      ( "clock-reps",
        [
          Alcotest.test_case "directed seeds (n=4)" `Quick
            test_conformance_directed;
          Alcotest.test_case "promotion boundary (n=16)" `Slow
            test_conformance_promotion;
          QCheck_alcotest.to_alcotest prop_conformant_small;
          QCheck_alcotest.to_alcotest prop_conformant_wide;
        ] );
      ( "batched-coherence",
        [
          Alcotest.test_case "batched = unbatched race sets (50 walks)"
            `Slow test_batched_differential;
        ] );
    ]
