module Engine = Dsm_sim.Engine
module Prng = Dsm_sim.Prng
module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Report = Dsm_core.Report
module Vector_clock = Dsm_clocks.Vector_clock

type spec = {
  scenario : string;
  n : int;
  seed : int;
  latency : Dsm_net.Latency.t;
  clock_wire : Dsm_core.Config.clock_wire;
  model : Dsm_rdma.Model.t;
  faults : Dsm_net.Fault.t;
  reliable : bool;
  bug : bool;
  max_events : int;
}

let default_spec =
  {
    scenario = "getput";
    n = 2;
    seed = 1;
    latency = Dsm_net.Latency.infiniband_like;
    clock_wire = Dsm_core.Config.default.Dsm_core.Config.clock_wire;
    model = Dsm_rdma.Model.default;
    faults = Dsm_net.Fault.none;
    reliable = false;
    bug = false;
    max_events = 200_000;
  }

type outcome = Completed | Blocked of int | Event_limit | Crashed of string

let outcome_to_string = function
  | Completed -> "completed"
  | Blocked k -> Printf.sprintf "blocked(%d)" k
  | Event_limit -> "event-limit"
  | Crashed msg -> Printf.sprintf "crashed: %s" msg

type violation = { invariant : string; detail : string }

type run_result = {
  outcome : outcome;
  sim_time : float;
  events : int;
  decisions : int list;
  choices : (int * int) list;
  fingerprint : string;
  canon : string;
  races : int;
  retransmits : int;
  violations : violation list;
}

type mode = Walk of int | Script of int list

(* How often (in events) the detector's per-process clocks are sampled
   for the monotonicity invariant. *)
let clock_stride = 256

let mix_seed seed salt =
  (* splitmix-style avalanche so walk i and walk i+1 share nothing *)
  let h = (seed * 0x9E3779B1) lxor ((salt + 1) * 0x85EBCA77) in
  (h lxor (h lsr 13)) land max_int

(* A reusable exploration arena. Everything heavyweight is built once —
   the engine, the machine (lazily, on the first run), the scenario plan
   (program parsed and compiled once), the decision-recording buffers,
   the clock-sampling scratch — and reset in place between runs, so a
   worker executing thousands of schedules rebuilds nothing. A run in a
   reused ctx is bit-identical to one in a fresh ctx (the reset layer
   reproduces construction state exactly, including PRNG stream
   positions); the test suite holds us to that. *)
type ctx = {
  spec : spec;
  plan : Scenario.plan;
  sim : Engine.t;
  mutable machine : Machine.t option;
  walk_rng : Prng.t;  (* decision stream for Walk runs, reseeded per run *)
  chooser : Chooser.t;  (* records the schedule of the current run *)
  replay_chooser : Chooser.t;  (* scripted re-run for the determinism check *)
  prev : Vector_clock.t option array;  (* clock-monotonicity scratch *)
  mutable runs_executed : int;  (* run ids for the probe bus *)
  mutable ready_log : Ready_log.t option;
      (* when installed, every run records its choice-point ready views
         and chained-grant samples — the DPOR layer's input *)
  mutable last_built : Scenario.built option;
      (* the machine/detector/monitor set of the most recent run, for
         post-run inspection (race explanations) *)
}

let create_ctx ?metrics spec =
  let plan =
    Scenario.prepare ~latency:spec.latency ~clock_wire:spec.clock_wire
      ~model:spec.model ~spec:spec.scenario ~n:spec.n ~seed:spec.seed
      ~faults:spec.faults ~reliable:spec.reliable ~bug:spec.bug ()
  in
  let sim = Engine.create ~seed:spec.seed () in
  (* Telemetry is strictly read-only with respect to the simulation —
     the meter touches neither PRNG streams nor scheduling — so a
     metrics-carrying ctx produces bit-identical findings. The bus lives
     in the engine and survives [Engine.reset], so one attach here
     observes every reused run. *)
  (match metrics with
  | None -> ()
  | Some registry -> ignore (Dsm_obs.Meter.attach registry (Engine.probe sim)));
  {
    spec;
    plan;
    sim;
    machine = None;
    walk_rng = Prng.create ~seed:0;
    chooser = Chooser.scripted [];
    replay_chooser = Chooser.scripted [];
    prev = Array.make (Scenario.procs plan) None;
    runs_executed = 0;
    ready_log = None;
    last_built = None;
  }

let ctx_probe ctx = Engine.probe ctx.sim

let ctx_spec ctx = ctx.spec

let last_built ctx = ctx.last_built

let set_ready_log ctx log = ctx.ready_log <- log

let decision_capacity ctx = Chooser.capacity ctx.chooser

(* Reset the arena and populate it for the next run. Order matters:
   [Engine.reset] first (restores the root PRNG), then the machine reset
   inside [repopulate] re-splits the fabric stream from the same root
   position as construction did. *)
let fresh_built ctx =
  Engine.reset ~seed:ctx.spec.seed ctx.sim;
  match ctx.machine with
  | None ->
      let b = Scenario.instantiate ctx.plan ctx.sim in
      ctx.machine <- Some b.Scenario.machine;
      b
  | Some m -> Scenario.repopulate ctx.plan m

(* Run one schedule to its end, sampling detector clocks along the way.
   Returns the engine outcome (or the crash) — invariants are judged by
   the caller. *)
let execute ctx (built : Scenario.built) =
  let spec = ctx.spec in
  let sim = Machine.sim built.Scenario.machine in
  let mono = ref [] in
  let prev = ctx.prev in
  Array.fill prev 0 (Array.length prev) None;
  let sample () =
    match built.detector with
    | None -> ()
    | Some d ->
        for pid = 0 to Array.length prev - 1 do
          let cur = Detector.proc_clock d pid in
          (match prev.(pid) with
          | Some old when not (Vector_clock.leq old cur) ->
              mono :=
                Printf.sprintf
                  "P%d clock went backwards at t=%.3f: %s then %s" pid
                  (Engine.now sim)
                  (Vector_clock.to_string old)
                  (Vector_clock.to_string cur)
                :: !mono
          | _ -> ());
          prev.(pid) <- Some cur
        done
  in
  let rec step () =
    let budget =
      min (Engine.events_processed sim + clock_stride) spec.max_events
    in
    match Engine.run ~max_events:budget sim with
    | Engine.Completed -> Completed
    | Engine.Blocked k -> Blocked k
    | Engine.Stopped -> Crashed "engine stopped"
    | Engine.Time_limit_reached -> Crashed "unexpected time limit"
    | Engine.Event_limit_reached ->
        sample ();
        if Engine.events_processed sim >= spec.max_events then Event_limit
        else step ()
    | exception e -> Crashed (Printexc.to_string e)
  in
  let outcome = step () in
  sample ();
  (outcome, List.rev !mono)

let check_invariants spec (built : Scenario.built) outcome mono =
  let v = ref [] in
  let add invariant detail = v := { invariant; detail } :: !v in
  let expect_complete = Dsm_net.Fault.is_none spec.faults || spec.reliable in
  (match outcome with
  | Completed ->
      let pending = Machine.pending_ops built.machine in
      if pending > 0 then
        add "quiescence"
          (Printf.sprintf "%d operation(s) still awaiting replies" pending);
      if not (Machine.locks_quiescent built.machine) then
        add "lock-quiescence" "a NIC lock table still holds or queues a range"
  | other ->
      if expect_complete then
        add "completion"
          (Printf.sprintf "run ended %s under %s"
             (outcome_to_string other)
             (if spec.reliable then "reliable transport"
              else "a fault-free fabric")));
  if not (Coherence.is_clean built.coherence) then
    add "coherence"
      (String.concat "; "
         (List.map
            (Format.asprintf "%a" Coherence.pp_violation)
            (Coherence.violations built.coherence)));
  List.iter (fun m -> add "clock-monotonicity" m) mono;
  List.iter
    (fun detail -> add "rmw-linearizability" detail)
    (Linearize.violations built.linearize);
  List.iter (fun (name, detail) -> add name detail) (built.monitor ());
  List.rev !v

let fingerprint_of spec (built : Scenario.built) outcome ~races ~monitor_report
    =
  let sim = Machine.sim built.machine in
  let report_fp =
    match (built.detector : Detector.t option) with
    | Some d -> Report.fingerprint (Detector.report d)
    | None -> "-"
  in
  let payload =
    Printf.sprintf "%s|%.9f|%d|%d|%s|%d|%s" (outcome_to_string outcome)
      (Engine.now sim)
      (Engine.events_processed sim)
      races report_fp
      (List.length (Coherence.violations built.coherence))
      (String.concat ";"
         (List.map (fun (a, b) -> a ^ "=" ^ b) monitor_report))
  in
  (* spec so that tokens for different scenarios never collide *)
  Digest.to_hex (Digest.string (spec.scenario ^ "\x00" ^ payload))

(* Order-insensitive summary of what a run {e found}: outcome, the set
   of violated invariants, and the set of raced granules (who, where) —
   with no timestamps, event counts or signal orders. Two
   Mazurkiewicz-equivalent schedules execute the same events in
   different orders, so their full fingerprints differ (times, seqs)
   while their canonical fingerprints must agree; the DPOR soundness
   suite compares exactly this. *)
let canon_of (built : Scenario.built) outcome violations =
  let vnames =
    List.sort_uniq compare
      (List.map (fun v -> v.invariant) violations)
  in
  let groups =
    match built.detector with
    | None -> []
    | Some d ->
        List.sort_uniq compare
          (List.map
             (fun (g : Report.group) ->
               Printf.sprintf "%d:%d+%d:%s" g.g_granule.base.pid
                 g.g_granule.base.offset g.g_granule.len
                 (String.concat "," (List.map string_of_int g.g_pids)))
             (Report.grouped (Detector.report d)))
  in
  Printf.sprintf "%s|%s|%s" (outcome_to_string outcome)
    (String.concat "," vnames)
    (String.concat ";" groups)

(* The allocation-tight per-run summary: everything a caller needs to
   classify a run, with the schedule itself left in the ctx's reusable
   buffers. [result_of] materializes the full {!run_result} for the rare
   runs that get surfaced. *)
type raw = {
  r_outcome : outcome;
  r_sim_time : float;
  r_events : int;
  r_races : int;
  r_retransmits : int;
  r_violations : violation list;
  r_fingerprint : string;
  r_canon : string;
}

let raw_violating r = r.r_violations <> []

let raw_canon r = r.r_canon

let exec_with ctx chooser =
  let probe = Engine.probe ctx.sim in
  let run = ctx.runs_executed in
  ctx.runs_executed <- run + 1;
  if probe.Dsm_obs.Probe.on then
    Dsm_obs.Probe.emit probe (Run_begin { run });
  let built = fresh_built ctx in
  ctx.last_built <- Some built;
  Engine.set_chooser ctx.sim (Some (Chooser.fn chooser));
  (match ctx.ready_log with
  | None -> ()
  | Some log ->
      Ready_log.reset log ~sample:(fun () ->
          Machine.lock_grants_chained built.Scenario.machine);
      Engine.set_choice_view ctx.sim (Some (Ready_log.observe log)));
  let outcome, mono = execute ctx built in
  Engine.set_chooser ctx.sim None;
  (match ctx.ready_log with
  | None -> ()
  | Some log ->
      Ready_log.finish log;
      Engine.set_choice_view ctx.sim None);
  let violations = check_invariants ctx.spec built outcome mono in
  let races =
    match built.detector with
    | Some d -> Report.count (Detector.report d)
    | None -> 0
  in
  let monitor_report = built.monitor () in
  if probe.Dsm_obs.Probe.on then begin
    List.iter
      (fun v ->
        Dsm_obs.Probe.emit probe (Violation { run; invariant = v.invariant }))
      violations;
    Dsm_obs.Probe.emit probe
      (Run_end
         {
           run;
           events = Engine.events_processed ctx.sim;
           violating = violations <> [];
         })
  end;
  {
    r_outcome = outcome;
    r_sim_time = Engine.now ctx.sim;
    r_events = Engine.events_processed ctx.sim;
    r_races = races;
    r_retransmits = Machine.transport_retransmits built.machine;
    r_violations = violations;
    r_fingerprint = fingerprint_of ctx.spec built outcome ~races ~monitor_report;
    r_canon = canon_of built outcome violations;
  }

let exec_mode ctx mode =
  (match mode with
  | Walk salt ->
      Prng.reseed ctx.walk_rng ~seed:(mix_seed ctx.spec.seed salt);
      Chooser.reset_random ctx.chooser ctx.walk_rng
  | Script ds -> Chooser.reset_scripted ctx.chooser ds);
  exec_with ctx ctx.chooser

(* Determinism check: replay the decisions just recorded (shared buffer,
   no copy) through the second chooser, leaving the original recording
   intact for [result_of]. *)
let exec_checked ?(check_determinism = false) ctx mode =
  let r = exec_mode ctx mode in
  if not check_determinism then r
  else begin
    Chooser.reset_replay_of ctx.replay_chooser ~src:ctx.chooser;
    let r2 = exec_with ctx ctx.replay_chooser in
    if String.equal r2.r_fingerprint r.r_fingerprint then r
    else
      {
        r with
        r_violations =
          r.r_violations
          @ [
              {
                invariant = "determinism";
                detail =
                  Printf.sprintf
                    "same schedule, different fingerprints (%s vs %s)"
                    r.r_fingerprint r2.r_fingerprint;
              };
            ];
      }
  end

let result_of ctx (r : raw) =
  {
    outcome = r.r_outcome;
    sim_time = r.r_sim_time;
    events = r.r_events;
    decisions = Chooser.decisions ctx.chooser;
    choices = Chooser.trace ctx.chooser;
    fingerprint = r.r_fingerprint;
    canon = r.r_canon;
    races = r.r_races;
    retransmits = r.r_retransmits;
    violations = r.r_violations;
  }

let run_once_in ?(check_determinism = false) ctx mode =
  result_of ctx (exec_checked ~check_determinism ctx mode)

let run_once ?(check_determinism = false) spec mode =
  run_once_in ~check_determinism (create_ctx spec) mode

type stats = {
  runs : int;
  violated : int;
  first : (mode * run_result) option;
}

let explore_random_in ?(check_determinism = true) ?(stop_on_first = true) ctx
    ~runs =
  let rec loop i executed violated first =
    if i >= runs || (stop_on_first && first <> None) then
      { runs = executed; violated; first }
    else
      let r = exec_checked ~check_determinism ctx (Walk i) in
      let bad = raw_violating r in
      let first =
        match first with
        | Some _ -> first
        | None -> if bad then Some (Walk i, result_of ctx r) else None
      in
      loop (i + 1) (executed + 1) (violated + if bad then 1 else 0) first
  in
  loop 0 0 0 None

let explore_random ?(check_determinism = true) ?(stop_on_first = true) spec
    ~runs =
  explore_random_in ~check_determinism ~stop_on_first (create_ctx spec) ~runs

(* Decision prefixes deviating from the run most recently executed in
   [ctx], in canonical order: deviation position ascending, then branch
   ascending. Both the sequential DFS and the parallel driver's subtree
   partition enumerate children through this one function — that shared
   canonical order is what makes the parallel merge bit-identical to the
   sequential search. *)
let last_choice_points ctx = Chooser.choice_points ctx.chooser

let last_chosen_at ctx p = Chooser.chosen_at ctx.chooser p

let last_ready_at ctx p = Chooser.ready_at ctx.chooser p

let last_children ctx ~plen ~depth =
  let c = ctx.chooser in
  let horizon = min depth (Chooser.choice_points c) in
  let acc = ref [] in
  for p = horizon - 1 downto plen do
    let ready = Chooser.ready_at c p in
    let base = List.init p (Chooser.chosen_at c) in
    for k = ready - 1 downto 1 do
      acc := (base @ [ k ]) :: !acc
    done
  done;
  !acc

(* Bounded-exhaustive DFS over decision prefixes: run the scripted
   prefix, read the (ready, chosen) trace it actually produced, and push
   one child per untaken branch at every choice point past the prefix
   (up to [depth] choice points into the run). First-deviation order —
   the classic stateless-model-checking enumeration. *)
let explore_exhaustive_in ?(check_determinism = false) ?(max_runs = 500) ctx
    ~depth =
  let stack = ref [ [] ] in
  let executed = ref 0 in
  let violated = ref 0 in
  let first = ref None in
  let continue_ () = !stack <> [] && !executed < max_runs && !first = None in
  while continue_ () do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        let r = exec_checked ~check_determinism ctx (Script prefix) in
        incr executed;
        if raw_violating r then begin
          incr violated;
          if !first = None then first := Some (Script prefix, result_of ctx r)
        end;
        stack := last_children ctx ~plen:(List.length prefix) ~depth @ !stack
  done;
  { runs = !executed; violated = !violated; first = !first }

let explore_exhaustive ?(check_determinism = false) ?(max_runs = 500) spec
    ~depth =
  explore_exhaustive_in ~check_determinism ~max_runs (create_ctx spec) ~depth

(* Greedy minimization: find a short violating decision prefix by
   binary-searching the prefix length (violations here are usually
   prefix-closed; the search only ever lands on a verified-violating
   length), then try zeroing each remaining nonzero decision. All probe
   runs share one arena. *)
let minimize ?metrics spec decisions =
  let ctx = create_ctx ?metrics spec in
  let probe = Engine.probe ctx.sim in
  let violates ds =
    let bad = raw_violating (exec_mode ctx (Script ds)) in
    if probe.Dsm_obs.Probe.on then
      Dsm_obs.Probe.emit probe
        (Minimize_step { len = List.length ds; violating = bad });
    bad
  in
  let ds = Array.of_list (Token.trim_trailing_zeros decisions) in
  let len = Array.length ds in
  let prefix l = Array.to_list (Array.sub ds 0 l) in
  if len = 0 then []
  else begin
    let lo = ref 0 and hi = ref len in
    (* invariant: prefix !hi violates *)
    if violates [] then hi := 0
    else
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if violates (prefix mid) then hi := mid else lo := mid + 1
      done;
    let kept = Array.sub ds 0 !hi in
    for i = 0 to Array.length kept - 1 do
      if kept.(i) <> 0 then begin
        let saved = kept.(i) in
        kept.(i) <- 0;
        if not (violates (Array.to_list kept)) then kept.(i) <- saved
      end
    done;
    Token.trim_trailing_zeros (Array.to_list kept)
  end

let token_of spec decisions =
  {
    Token.scenario = spec.scenario;
    n = spec.n;
    seed = spec.seed;
    latency = spec.latency;
    clock_wire = spec.clock_wire;
    model = spec.model;
    faults = spec.faults;
    reliable = spec.reliable;
    bug = spec.bug;
    max_events = spec.max_events;
    decisions = Token.trim_trailing_zeros decisions;
  }

let spec_of_token (t : Token.t) =
  {
    scenario = t.scenario;
    n = t.n;
    seed = t.seed;
    latency = t.latency;
    clock_wire = t.clock_wire;
    model = t.model;
    faults = t.faults;
    reliable = t.reliable;
    bug = t.bug;
    max_events = t.max_events;
  }

let replay ?probe (t : Token.t) =
  match create_ctx (spec_of_token t) with
  | ctx ->
      (match probe with None -> () | Some f -> f (ctx_probe ctx));
      Ok (run_once_in ctx (Script t.decisions))
  | exception Invalid_argument msg -> Error msg
  | exception Sys_error msg -> Error msg

let pp_violation ppf v =
  Format.fprintf ppf "%s: %s" v.invariant v.detail

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>outcome      : %s@,sim time     : %.2f us@,events       : %d@,\
     choice points: %d@,races        : %d@,retransmits  : %d@,\
     fingerprint  : %s@]"
    (outcome_to_string r.outcome)
    r.sim_time r.events
    (List.length r.choices)
    r.races r.retransmits r.fingerprint
