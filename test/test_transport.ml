(* The transport-matrix golden: every deployment of the checked access
   path (§5.2's Inline, Piggyback_txn and Explicit_txn transports), with
   and without the offline trace recorder, over both clock
   representations, pinned by a digest of everything the path can
   change — verdicts, race records, fabric traffic, simulated time,
   detector counters, final clocks, the recorded trace and the ordered
   detector and message probe events.

   The op mix drives every entry into the detector: plain put and get,
   the three RMW verbs (accumulate from a private and from a public
   staging source), a batched put run and a batched get run (one
   fabric message per run on the inline and piggyback transports), a
   batched put with public sources (the per-op fallback), a get+put
   under a checked user lock, and a PGAS barrier every 7 ops. *)

open Dsm_sim
open Dsm_memory
module Machine = Dsm_rdma.Machine
module Probe = Dsm_obs.Probe
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Collectives = Dsm_pgas.Collectives

let ops_per_proc = 30

let barrier_every = 7

(* The probe events the checked access path emits or causes, with all
   their fields, one line each in emission order. *)
let probe_line buf (ev : Probe.event) =
  match ev with
  | Detector_check { time; pid; kind; fast_path } ->
      Printf.bprintf buf "check %h %d %s %b\n" time pid kind fast_path
  | Clock_merge { time; pid } -> Printf.bprintf buf "merge %h %d\n" time pid
  | Race_signal { time; pid; node; offset; len; kind; against } ->
      Printf.bprintf buf "race %h %d %d %d %d %s %s\n" time pid node offset len
        kind against
  | Msg_sent { time; src; dst; op; label } ->
      Printf.bprintf buf "msg %h %d %d %d %s\n" time src dst op label
  | _ -> ()

let outcome_name = function
  | Engine.Completed -> "completed"
  | Engine.Blocked k -> Printf.sprintf "blocked %d" k
  | Engine.Time_limit_reached -> "time-limit"
  | Engine.Event_limit_reached -> "event-limit"
  | Engine.Stopped -> "stopped"

let run_digest ~transport ~record_trace ~clock_rep ~n ~seed =
  let sim = Engine.create ~seed () in
  let latency =
    Dsm_net.Latency.Jittered
      { model = Dsm_net.Latency.Constant 1.0; mean_jitter = 2.0 }
  in
  let m = Machine.create sim ~n ~latency () in
  let config =
    {
      Config.default with
      Config.granularity = Config.Word;
      transport;
      record_trace;
      clock_rep;
    }
  in
  let d = Detector.create m ~config () in
  let events = Buffer.create 4096 in
  Probe.attach (Engine.probe sim) (probe_line events);
  let collectives = Collectives.create (Dsm_pgas.Env.checked d) in
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
  let word (r : Addr.region) i =
    Addr.region ~pid:r.base.pid ~space:r.base.space
      ~offset:(r.base.offset + i) ~len:1
  in
  for pid = 0 to n - 1 do
    let g = Prng.create ~seed:(seed + (131 * pid)) in
    let plan =
      List.init ops_per_proc (fun _ ->
          (Prng.int g 9, Prng.int g nvars, Prng.int g 4, Prng.float g 15.0))
    in
    let buf = Machine.alloc_private m ~pid ~len:4 () in
    let scratch = Machine.alloc_private m ~pid ~len:1 () in
    let stage = Machine.alloc_public m ~pid ~name:"stage" ~len:4 () in
    Machine.spawn m ~pid (fun p ->
        List.iteri
          (fun i (op, v, w, think) ->
            Machine.compute p think;
            let var = vars.(v) in
            let cell = word var w in
            let target = cell.Addr.base in
            (match op with
            | 0 -> Detector.put d p ~src:buf ~dst:var
            | 1 -> Detector.get d p ~src:var ~dst:buf
            | 2 -> ignore (Detector.fetch_add d p ~target ~delta:1)
            | 3 ->
                ignore
                  (Detector.cas d p ~target ~expected:0 ~desired:(pid + 1))
            | 4 ->
                (* a public staging source gets its own read check *)
                let aop = [| Dsm_rdma.Message.Add; Min; Max; Bor |].(w) in
                let src = if w land 1 = 0 then buf else stage in
                ignore (Detector.accumulate d p ~src ~dst:var ~aop)
            | 5 ->
                Detector.put_batch d p
                  ~pairs:(List.init 4 (fun k -> (word buf k, word var k)))
            | 6 ->
                Detector.get_batch d p
                  ~pairs:(List.init 4 (fun k -> (word var k, word buf k)))
            | 7 ->
                Detector.put_batch d p
                  ~pairs:(List.init 4 (fun k -> (word stage k, word var k)))
            | _ ->
                let h = Detector.lock d p mutexes.(v) in
                Detector.get d p ~src:cell ~dst:scratch;
                Detector.put d p ~src:scratch ~dst:cell;
                Detector.unlock d p h);
            if (i + 1) mod barrier_every = 0 then
              Collectives.barrier collectives p)
          plan)
  done;
  let outcome =
    try Machine.run m
    with Engine.Process_failure (name, e) ->
      Alcotest.failf "%s raised %s" name (Printexc.to_string e)
  in
  let report = Detector.report d in
  let fp =
    String.concat "|"
      [
        outcome_name outcome;
        string_of_int (Report.count report);
        Report.to_csv report;
        string_of_int (Machine.fabric_messages m);
        string_of_int (Machine.fabric_words m);
        string_of_int (Machine.wire_words_sent m);
        Printf.sprintf "%h" (Engine.now sim);
        string_of_int (Detector.checked_ops d);
        string_of_int (Detector.meta_messages d);
        string_of_int (Detector.clock_words_shipped d);
        string_of_int (Detector.storage_words d);
        String.concat ";"
          (List.init n (fun pid ->
               Dsm_clocks.Vector_clock.to_string (Detector.proc_clock d pid)));
        (match Detector.trace d with
        | None -> "no-trace"
        | Some trace -> Dsm_trace.Export.to_csv trace);
        Buffer.contents events;
      ]
  in
  Digest.to_hex (Digest.string fp)

let transports =
  [
    ("inline", Config.Inline);
    ("piggyback", Config.Piggyback_txn);
    ("explicit", Config.Explicit_txn);
  ]

let reps = [ ("sparse", Config.Sparse_vector); ("dense", Config.Dense_vector) ]

let sizes = [ (3, 1); (4, 2); (8, 3); (16, 4) ]

(* Recorded on the tree before the checked-access paths were unified:
   (transport, trace recorded, clock representation, n, seed, digest).
   The sparse and dense rows differ only through the [fast_path] flag
   of the [Detector_check] events (a dense clock is never an epoch). *)
let goldens =
  [
    ("inline", false, "sparse", 3, 1, "6a6768dabd091e64ebf5acd5c2cd980d");
    ("inline", false, "sparse", 4, 2, "905008ccf751d3b8e4c6cc2f9bfe57a2");
    ("inline", false, "sparse", 8, 3, "00c889dfcd07af3b1626901904eb006f");
    ("inline", false, "sparse", 16, 4, "ed753d2b91066ba99c96f431672f53d2");
    ("inline", false, "dense", 3, 1, "f959c2b1229771fb85bcad2d6623f268");
    ("inline", false, "dense", 4, 2, "bfe8d35de7eca31205c8901f0910fa2e");
    ("inline", false, "dense", 8, 3, "c5881faf20f9c0305a250374f96a3bef");
    ("inline", false, "dense", 16, 4, "69cd34809bcb224b87a30cc690dc13dc");
    ("inline", true, "sparse", 3, 1, "5e148552a3c6c3aa11f2ced7bb7b1c2d");
    ("inline", true, "sparse", 4, 2, "a407242a64ee8ee13070df609ed92f65");
    ("inline", true, "sparse", 8, 3, "9a584bdd374475582f14b31c0e37cde3");
    ("inline", true, "sparse", 16, 4, "839fb1a5e5102894f0fe605df758192e");
    ("inline", true, "dense", 3, 1, "6f22a6ee27948144a45c80dee555813f");
    ("inline", true, "dense", 4, 2, "37350a7019b34b1ed65f65bbe5637e6e");
    ("inline", true, "dense", 8, 3, "e830e29fdac9398e6b5e4d3b7fe8d247");
    ("inline", true, "dense", 16, 4, "d0b1511551fd2fb2111d995beafc44e2");
    ("piggyback", false, "sparse", 3, 1, "e0b60579312a99d82da065fa34e1ef05");
    ("piggyback", false, "sparse", 4, 2, "8c9f3beb01079d34b8922b3ade2c6aee");
    ("piggyback", false, "sparse", 8, 3, "fd0e3b483909ea569793c3946df0aca3");
    ("piggyback", false, "sparse", 16, 4, "e8bdcbfccb1b3867b4c7b0b93aab4b59");
    ("piggyback", false, "dense", 3, 1, "ec379fa5e1aff31b88f145550024628b");
    ("piggyback", false, "dense", 4, 2, "3702a67d416690d5643bd8b372caa102");
    ("piggyback", false, "dense", 8, 3, "73342b84aed81521d18ac2bf1c17ae88");
    ("piggyback", false, "dense", 16, 4, "b4fb2534f122bd148a435d22949906bd");
    ("piggyback", true, "sparse", 3, 1, "6962a84f5b3538589fccd039cbe38168");
    ("piggyback", true, "sparse", 4, 2, "fd9066cd7b65a259ef7ba6740c2da2a0");
    ("piggyback", true, "sparse", 8, 3, "f14bb8af94ff31eaf22c6c4425d50f93");
    ("piggyback", true, "sparse", 16, 4, "3601c22b4215ec125bd277df5b59aa5c");
    ("piggyback", true, "dense", 3, 1, "5a93467935ca958636e2d6d787a803ab");
    ("piggyback", true, "dense", 4, 2, "1aba24eb76e10da09096009af50b3b87");
    ("piggyback", true, "dense", 8, 3, "ed7fd153a075932fa9384e8679d202a2");
    ("piggyback", true, "dense", 16, 4, "58c0424691fd64f410fdce3bc121fd40");
    ("explicit", false, "sparse", 3, 1, "50396b5bd0304520eff73ca0ff03c606");
    ("explicit", false, "sparse", 4, 2, "8204d25a0d35e2d4a03860e49c616ab2");
    ("explicit", false, "sparse", 8, 3, "89e16d4a72c24687388c842df73029d8");
    ("explicit", false, "sparse", 16, 4, "0cbd7a9f90060de379636139a6556662");
    ("explicit", false, "dense", 3, 1, "24ff44b193088d4842e439af0167d4c1");
    ("explicit", false, "dense", 4, 2, "18298606300518e577d30fe91210e923");
    ("explicit", false, "dense", 8, 3, "664390122e1d53aa20e220753023fa9c");
    ("explicit", false, "dense", 16, 4, "546248b92966c925dc5468c8d8581cd8");
    ("explicit", true, "sparse", 3, 1, "7847189a9f791a8ac000a8c55fd3b1e7");
    ("explicit", true, "sparse", 4, 2, "70bb96c9bb96b5606cd93dbe50351bdb");
    ("explicit", true, "sparse", 8, 3, "a33cccca3f2b89e60ace0273fe0c3589");
    ("explicit", true, "sparse", 16, 4, "d362c04be04f3c8e6b2d5087603b04aa");
    ("explicit", true, "dense", 3, 1, "5f12bc70245a6fbea5e13ae3051ea436");
    ("explicit", true, "dense", 4, 2, "319921a29ae7dfca0f153c234e49fd9a");
    ("explicit", true, "dense", 8, 3, "3935b7d64be2b5613d4600faad1e9635");
    ("explicit", true, "dense", 16, 4, "031ac9d3b1051fc85836d42a76b4e060");
  ]

let test_cell tname record_trace rname () =
  let transport = List.assoc tname transports
  and clock_rep = List.assoc rname reps in
  let cell =
    List.filter
      (fun (t, tr, r, _, _, _) -> t = tname && tr = record_trace && r = rname)
      goldens
  in
  Alcotest.(check int) "one golden per size" (List.length sizes)
    (List.length cell);
  List.iter
    (fun (_, _, _, n, seed, golden) ->
      Alcotest.(check string)
        (Printf.sprintf "n=%d seed=%d" n seed)
        golden
        (run_digest ~transport ~record_trace ~clock_rep ~n ~seed))
    cell

let () =
  Alcotest.run "transport"
    [
      ( "transport-matrix",
        List.concat_map
          (fun (tname, _) ->
            List.concat_map
              (fun record_trace ->
                List.map
                  (fun (rname, _) ->
                    Alcotest.test_case
                      (Printf.sprintf "%s trace=%b %s" tname record_trace rname)
                      `Quick
                      (test_cell tname record_trace rname))
                  reps)
              [ false; true ])
          transports );
    ]
