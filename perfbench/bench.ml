(* The repository benchmark: three closed-loop workloads over the public
   libraries, end-to-end metrics with tracing off (--trace 0) and
   per-layer metrics from a separate traced run (--trace 1). Nothing here
   reaches inside lib/: every layer is measured by timing calls into its
   public functions, and by running the same program with the layers
   switched on one at a time (the ladder). See README.md. *)

module Engine = Dsm_sim.Engine
module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Env = Dsm_pgas.Env
module Explore = Dsm_explore.Explore
module Scenario = Dsm_explore.Scenario
module Probe = Dsm_obs.Probe
module Codec = Dsm_clocks.Codec
module Vc = Dsm_clocks.Vector_clock

let now () = Bechamel.Toolkit.Monotonic_clock.get () /. 1e9

(* ---------- statistics ---------- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* ---------- spans ---------- *)

(* In-memory span recorder for the traced run: one span per call into a
   layer's public function (or per ladder rung / benchmark phase), with
   its parent and the id of the workload run it belongs to. Written out
   once, at exit. *)
module Spans = struct
  type span = {
    id : int;
    name : string;
    layer : string;
    parent : int;
    run : int;
    t0 : float;
    t1 : float;
  }

  let enabled = ref false
  let run_id = ref 0
  let next_id = ref 0
  let stack = ref []
  let closed = ref []

  let with_ ~layer name f =
    if not !enabled then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = now () in
      let finish () =
        let t1 = now () in
        stack := List.tl !stack;
        closed := { id; name; layer; parent; run = !run_id; t0; t1 } :: !closed
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  let new_run () = incr run_id

  (* Self time: a span's duration minus the part its children cover
     (children nest and never overlap — one domain, one stack). *)
  let self_times () =
    let spans = !closed in
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            ((s.t1 -. s.t0)
            +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
      spans;
    let by_key = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let self =
          s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.
        in
        let key = (s.layer, s.name) in
        let total, calls =
          Option.value (Hashtbl.find_opt by_key key) ~default:(0., 0)
        in
        Hashtbl.replace by_key key (total +. self, calls + 1))
      spans;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_key []
    |> List.sort compare
end

(* ---------- host facts ---------- *)

type host = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  commit : string;
}

let host_json h =
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %b, \
     \"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"word_bytes\": %d}"
    h.workload h.seed h.seconds h.trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version h.commit (Sys.word_size / 8)

(* ---------- deterministic counts ---------- *)

type counts = {
  sim_us : float;
  events : int;
  msgs : int;
  wire : int;
  clock_words : int;
  checks : int;
  races : int;
  choice_points : int;
  violated : int;
}

let zero =
  {
    sim_us = 0.;
    events = 0;
    msgs = 0;
    wire = 0;
    clock_words = 0;
    checks = 0;
    races = 0;
    choice_points = 0;
    violated = 0;
  }

let add a b =
  {
    sim_us = a.sim_us +. b.sim_us;
    events = a.events + b.events;
    msgs = a.msgs + b.msgs;
    wire = a.wire + b.wire;
    clock_words = a.clock_words + b.clock_words;
    checks = a.checks + b.checks;
    races = a.races + b.races;
    choice_points = a.choice_points + b.choice_points;
    violated = a.violated + b.violated;
  }

let counts_of machine detector =
  let sim = Machine.sim machine in
  {
    sim_us = Engine.now sim;
    events = Engine.events_processed sim;
    msgs = Machine.fabric_messages machine;
    wire = Machine.wire_words_sent machine;
    clock_words = Machine.clock_words_sent machine;
    checks =
      (match detector with Some d -> Detector.checked_ops d | None -> 0);
    races =
      (match detector with
      | Some d -> Report.count (Detector.report d)
      | None -> 0);
    choice_points = 0;
    violated = 0;
  }

let counts_to_string c =
  Printf.sprintf
    "sim=%.6fus events=%d msgs=%d wire=%d clock_words=%d checks=%d races=%d \
     choice_points=%d violated=%d"
    c.sim_us c.events c.msgs c.wire c.clock_words c.checks c.races
    c.choice_points c.violated

(* The clock wire is accounting-only: two rungs that differ only in the
   wire encoding must agree on everything but the words shipped. *)
let same_schedule a b =
  { a with wire = 0; clock_words = 0 } = { b with wire = 0; clock_words = 0 }

(* ---------- single-run programs ---------- *)

(* One generated input, run start to finish on a fresh machine. *)
type program = {
  ops : int;  (** checked operations the generator issues *)
  config : Config.t;  (** detector configuration of the checked run *)
  seed : int;
  make_machine : Engine.t -> Machine.t;
  spawn : Env.t -> unit;
}

(* The ladder: layers switched on in order. [Plain] runs sim + net +
   rdma (Env.plain, no detector); [Checked_sparse] adds core with the
   self-contained sparse wire; [Checked] is the workload's own
   configuration (delta wire), adding the clocks layer's encoder;
   [Probed] adds a counting sink on the obs probe bus. *)
type rung = Plain | Checked_sparse | Checked | Probed

let rung_name = function
  | Plain -> "plain"
  | Checked_sparse -> "checked_sparse"
  | Checked -> "checked"
  | Probed -> "probed"

type inst = {
  machine : Machine.t;
  detector : Detector.t option;
  coherence : Coherence.t option;
}

let build ?(coherence = false) ?config prog rung =
  let sim =
    Spans.with_ ~layer:"sim" "Engine.create" (fun () ->
        Engine.create ~seed:prog.seed ())
  in
  let machine =
    Spans.with_ ~layer:"rdma" "Machine.create" (fun () -> prog.make_machine sim)
  in
  let coherence = if coherence then Some (Coherence.attach machine) else None in
  let detector =
    match rung with
    | Plain -> None
    | Checked_sparse | Checked | Probed ->
        let base = Option.value config ~default:prog.config in
        let config =
          if rung = Checked_sparse then
            { base with Config.clock_wire = Config.Sparse_wire }
          else base
        in
        Some
          (Spans.with_ ~layer:"core" "Detector.create" (fun () ->
               Detector.create machine ~config ()))
  in
  let env =
    match detector with Some d -> Env.checked d | None -> Env.plain machine
  in
  Spans.with_ ~layer:"workload" "workload.setup" (fun () -> prog.spawn env);
  { machine; detector; coherence }

let run_inst inst =
  Spans.with_ ~layer:"rdma" "Machine.run" (fun () -> Machine.run inst.machine)

let scale_n = 1024
let scale_rounds = 2
let scale_chunk = 4

(* The `dsmcheck scale` configuration: sparse clocks, delta wire, 8
   shards, word granularity, race-free batched neighbour push. The seed
   draws the think times between rounds. *)
let scale_push seed =
  {
    ops = scale_n * scale_rounds * scale_chunk;
    config =
      {
        Config.default with
        Config.clock_rep = Config.Sparse_vector;
        clock_wire = Config.Delta_wire;
        store_shards = 8;
        granularity = Config.Word;
      };
    seed;
    make_machine =
      (fun sim ->
        Machine.create sim ~n:scale_n ~private_words:64 ~public_words:64 ());
    spawn =
      (fun env ->
        Dsm_workload.Scale.setup env
          {
            Dsm_workload.Scale.rounds = scale_rounds;
            chunk = scale_chunk;
            racy = false;
            batched = true;
            think_mean = 1.0;
            seed;
          });
  }

(* Config.default (what `dsmcheck run` uses). Of the ops ~20% are
   fetch-adds, and 0.625 of the rest gets, so ~50% reads; 2048 variables
   make roughly half of all checks signal a race. *)
let random_program ~n ~ops_per_proc ~vars ~read_fraction ~atomic_fraction
    ~think_mean seed =
  {
    ops = n * ops_per_proc;
    config = Config.default;
    seed;
    make_machine = (fun sim -> Machine.create sim ~n ());
    spawn =
      (fun env ->
        Dsm_workload.Random_access.setup env
          {
            Dsm_workload.Random_access.ops_per_proc;
            vars;
            var_len = 4;
            read_fraction;
            atomic_fraction;
            think_mean;
            barrier_every = None;
            seed;
          });
  }

let random_mix seed =
  random_program ~n:64 ~ops_per_proc:100 ~vars:2048
    ~read_fraction:0.625 ~atomic_fraction:0.2 ~think_mean:5.0 seed

(* ---------- explore_walks ---------- *)

let explore_n = 4

(* Programs per benchmark seed and walks per program in one pass. One
   workload:random program at n = 4 is 24 operations, so its simulated
   time swings with the seed; a pass over 32 programs keeps the
   per-schedule averages steady across seeds. *)
let explore_programs = 32
let explore_walks_per_program = 32

let explore_specs seed =
  List.init explore_programs (fun k ->
      {
        Explore.default_spec with
        Explore.scenario = "workload:random";
        n = explore_n;
        seed = (seed * explore_programs) + k;
      })

(* The program each workload:random schedule runs (the scenario's own
   parameters), for the ladder and the direct calls. *)
let explore_program (spec : Explore.spec) =
  random_program ~n:spec.n ~ops_per_proc:6 ~vars:4 ~read_fraction:0.5
    ~atomic_fraction:0.0 ~think_mean:1.0 spec.seed

let explore_counts ctx =
  match Explore.last_built ctx with
  | None -> zero
  | Some b ->
      {
        (counts_of b.Scenario.machine b.Scenario.detector) with
        choice_points = Explore.last_choice_points ctx;
      }

(* ---------- end-to-end measurement ---------- *)

(* Every workload is a closed loop of passes; a pass runs a fixed set of
   schedules whose deterministic counts must repeat exactly from pass to
   pass. Each pass is preceded by a calibration call and a set-up, so
   set-ups and passes sample the host over the whole run. All lists are
   in the same (reverse) order, one element per pass. *)
type e2e = {
  setups : float list;  (** seconds per workload set-up *)
  passes : float list;  (** seconds per pass *)
  schedules : float list array;
      (** per distinct schedule of a pass: seconds of each execution *)
  speeds : float list;  (** host slowdown around each pass, see [Host] *)
  pass_counts : counts;  (** deterministic counts of one pass *)
  peak_words : int;
  attempted : int;  (** units: checked ops, or schedules *)
  failed : int;
  problems : string list;
}

let min_passes = 3

let heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* Host speed. On a shared host the speed of plain CPU-bound code moves
   by up to 1.8x, in episodes from seconds to many minutes, so two sets
   of runs of the same code can differ by 25-40% in wall time. Every pass
   is therefore bracketed by calls to a fixed calibration kernel — code
   of this file only, which no change to lib/ can touch — and its time is
   divided by the kernel's slowdown against [reference_s], its time on an
   undisturbed development host. The kernel mixes what a simulated run
   does: small allocations, hash-table traffic, major-heap arrays and
   effect handlers. *)
module Host = struct
  type _ Effect.t += Step : int -> int Effect.t

  let reference_s = 0.009

  let kernel () =
    let tbl = Hashtbl.create 16 in
    let acc = ref 0 in
    for i = 0 to 80_000 do
      let key = i * 7919 land 8191 in
      match Hashtbl.find_opt tbl key with
      | Some (a : int array) ->
          acc := !acc + a.(i land 7);
          a.(i land 7) <- i
      | None -> Hashtbl.replace tbl key (Array.make 8 i)
    done;
    let l = List.init 40_000 (fun i -> (i, float_of_int i)) in
    let f =
      List.fold_left
        (fun s (i, x) -> s +. (x *. float_of_int (i land 3)))
        0. (List.rev l)
    in
    let steps () =
      let t = ref 0 in
      for i = 1 to 10_000 do
        t := !t + Effect.perform (Step i)
      done;
      !t
    in
    let e =
      Effect.Deep.match_with steps ()
        {
          retc = Fun.id;
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Step i ->
                  Some
                    (fun (k : (a, _) Effect.Deep.continuation) ->
                      Effect.Deep.continue k (i land 1))
              | _ -> None);
        }
    in
    ignore (Sys.opaque_identity (!acc + int_of_float f + e))

  (* Slowdown of the host right now: > 1 when slower than the reference. *)
  let slowdown () =
    Gc.full_major ();
    let t0 = now () in
    kernel ();
    let dt = now () -. t0 in
    Gc.full_major ();
    dt /. reference_s

  (* [readings] has one more element than there are passes: the reading
     before each pass and one after the last. A pass's slowdown is the
     mean of the readings on either side. Returned newest first, like
     the pass lists. *)
  let per_pass readings =
    let rec go = function
      | a :: (b :: _ as rest) -> ((a +. b) /. 2.) :: go rest
      | _ -> []
    in
    go readings
end

(* Host-normalized seconds: each raw sample divided by its pass's
   slowdown. *)
let normalized xs speeds = List.map2 ( /. ) xs speeds

let race_set inst =
  match inst.detector with
  | None -> []
  | Some d ->
      Report.races (Detector.report d)
      |> List.map (fun (r : Report.race) ->
             ( r.granule.Dsm_memory.Addr.base.Dsm_memory.Addr.pid,
               r.granule.base.offset,
               r.granule.len ))
      |> List.sort_uniq compare

(* Tracks the deterministic counts of the first clean pass and flags
   any later pass that differs. *)
let repeat_check first c =
  match !first with
  | None ->
      first := Some c;
      None
  | Some f when f = c -> None
  | Some f ->
      Some
        ("counts differ between passes of one seed: " ^ counts_to_string f
       ^ " vs " ^ counts_to_string c)

(* Single-run workloads: a pass sets up a fresh machine (timed as
   set-up) and runs the generated input to completion (timed as the
   pass, which is one schedule); the simulated processes inside wait for
   every operation before issuing the next. *)
let e2e_single ~seconds ~expect_races prog =
  let setups = ref [] and passes = ref [] in
  let first = ref None and peak = ref 0 in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let last = ref None and readings = ref [] in
  let t_end = now () +. seconds in
  let i = ref 0 in
  while !i < min_passes || now () < t_end do
    readings := Host.slowdown () :: !readings;
    Spans.new_run ();
    Spans.with_ ~layer:"bench" "pass" (fun () ->
        let t0 = now () in
        let inst =
          Spans.with_ ~layer:"bench" "setup" (fun () -> build prog Checked)
        in
        let t1 = now () in
        let outcome =
          match run_inst inst with
          | o -> Ok o
          | exception e -> Error (Printexc.to_string e)
        in
        let t2 = now () in
        if !i = 0 then peak := heap_words ();
        setups := (t1 -. t0) :: !setups;
        passes := (t2 -. t1) :: !passes;
        attempted := !attempted + prog.ops;
        let c = counts_of inst.machine inst.detector in
        let problem =
          match outcome with
          | Error e -> Some ("run raised " ^ e)
          | Ok o when o <> Engine.Completed -> Some "run did not complete"
          | Ok _ when c.checks <> prog.ops ->
              Some
                (Printf.sprintf "%d checked ops, generator issued %d" c.checks
                   prog.ops)
          | Ok _ when (not expect_races) && c.races <> 0 ->
              Some
                (Printf.sprintf "%d race signals on a race-free input" c.races)
          | Ok _ -> repeat_check first c
        in
        (match problem with
        | None -> ()
        | Some p ->
            failed := !failed + prog.ops;
            problems := p :: !problems);
        last := Some inst);
    incr i
  done;
  readings := Host.slowdown () :: !readings;
  ( {
      setups = !setups;
      passes = !passes;
      schedules = [| !passes |];
      speeds = Host.per_pass !readings;
      pass_counts = Option.value !first ~default:zero;
      peak_words = !peak;
      attempted = !attempted;
      failed = !failed;
      problems = List.rev !problems;
    },
    Option.get !last )

(* scale_push: the coherence checker is an observer that shadows every
   write, so it runs on a separate pass outside the timed loop, which
   must reproduce the timed passes' counts exactly. *)
let verify_scale prog (r : e2e) =
  Gc.full_major ();
  let inst = build ~coherence:true prog Checked in
  let o = run_inst inst in
  let c = counts_of inst.machine inst.detector in
  List.filter_map Fun.id
    [
      (if o <> Engine.Completed then Some "verification pass did not complete"
       else None);
      (match inst.coherence with
      | Some ch when not (Coherence.is_clean ch) ->
          Some "coherence checker reported violations"
      | _ -> None);
      (if c <> r.pass_counts then
         Some
           ("verification pass counts differ: " ^ counts_to_string c ^ " vs "
          ^ counts_to_string r.pass_counts)
       else None);
    ]

(* random_mix: the race verdict must equal a dense-clock / dense-wire
   reference run of the same seed, made outside the timed loop. *)
let verify_random prog (r : e2e) last =
  Gc.full_major ();
  let config =
    {
      prog.config with
      Config.clock_rep = Config.Dense_vector;
      clock_wire = Config.Dense_wire;
    }
  in
  let inst = build ~coherence:true ~config prog Checked in
  let o = run_inst inst in
  let c = counts_of inst.machine inst.detector in
  List.filter_map Fun.id
    [
      (if o <> Engine.Completed then Some "reference run did not complete"
       else None);
      (match inst.coherence with
      | Some ch when not (Coherence.is_clean ch) ->
          Some "coherence checker reported violations"
      | _ -> None);
      (if c.races <> r.pass_counts.races then
         Some
           (Printf.sprintf "%d race signals, dense reference has %d"
              r.pass_counts.races c.races)
       else None);
      (if race_set inst <> race_set last then
         Some "racy-granule set differs from the dense reference"
       else None);
    ]

let explore_setup specs =
  List.map
    (fun spec ->
      let ctx =
        Spans.with_ ~layer:"explore" "Explore.create_ctx" (fun () ->
            Explore.create_ctx spec)
      in
      (* the first run builds the arena's machine: lazy set-up *)
      ignore
        (Spans.with_ ~layer:"explore" "Explore.exec_checked" (fun () ->
             Explore.exec_checked ~check_determinism:true ctx (Walk 0)));
      ctx)
    specs

let timed_setup specs =
  Gc.full_major ();
  let t0 = now () in
  let ctxs = Spans.with_ ~layer:"bench" "setup" (fun () -> explore_setup specs) in
  (ctxs, now () -. t0)

(* explore_walks: the arenas are set up once and every pass runs the
   same walks back to back; a throwaway set-up after each pass supplies
   the set-up samples. *)
let e2e_explore ~seconds specs =
  let ctxs, _ = timed_setup specs in
  let setups = ref [] and passes = ref [] and readings = ref [] in
  let per_pass = explore_programs * explore_walks_per_program in
  let schedules = Array.make per_pass [] in
  let first = ref None and peak = ref 0 in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let t_end = now () +. seconds in
  let i = ref 0 in
  while !i < min_passes || now () < t_end do
    readings := Host.slowdown () :: !readings;
    Spans.new_run ();
    let total = ref zero in
    let t0 = now () in
    Spans.with_ ~layer:"bench" "pass" (fun () ->
        List.iteri
          (fun k ctx ->
            for w = 0 to explore_walks_per_program - 1 do
              let s0 = now () in
              let raw =
                Spans.with_ ~layer:"explore" "Explore.exec_checked" (fun () ->
                    Explore.exec_checked ~check_determinism:true ctx (Walk w))
              in
              let s1 = now () in
              let j = (k * explore_walks_per_program) + w in
              schedules.(j) <- (s1 -. s0) :: schedules.(j);
              let c = explore_counts ctx in
              total :=
                add !total
                  { c with violated = (if Explore.raw_violating raw then 1 else 0) }
            done)
          ctxs);
    passes := (now () -. t0) :: !passes;
    if !i = 0 then peak := heap_words ();
    attempted := !attempted + per_pass;
    let problem =
      if !total.violated > 0 then
        Some
          (Printf.sprintf "%d of %d schedules violated an invariant"
             !total.violated per_pass)
      else repeat_check first !total
    in
    (match problem with
    | None -> ()
    | Some p ->
        failed := !failed + per_pass;
        problems := p :: !problems);
    let _, s = timed_setup specs in
    setups := s :: !setups;
    incr i
  done;
  readings := Host.slowdown () :: !readings;
  {
    setups = !setups;
    passes = !passes;
    schedules;
    speeds = Host.per_pass !readings;
    pass_counts = Option.value !first ~default:zero;
    peak_words = !peak;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
  }

(* explore_walks: the same runs / violated as the library's own walk
   loop on each spec, outside the timed loop. *)
let verify_explore specs (r : e2e) =
  let runs, violated =
    List.fold_left
      (fun (runs, violated) spec ->
        let st =
          Explore.explore_random_in ~stop_on_first:false
            (Explore.create_ctx spec) ~runs:explore_walks_per_program
        in
        (runs + st.Explore.runs, violated + st.Explore.violated))
      (0, 0) specs
  in
  let per_pass = Array.length r.schedules in
  List.filter_map Fun.id
    [
      (if runs <> per_pass then
         Some
           (Printf.sprintf "explore_random_in ran %d schedules, a pass %d" runs
              per_pass)
       else None);
      (if violated <> r.pass_counts.violated then
         Some
           (Printf.sprintf "explore_random_in found %d violations, a pass %d"
              violated r.pass_counts.violated)
       else None);
    ]

(* Two measurements of one seed as one, their samples pooled. *)
let merge (a : e2e) (b : e2e) =
  {
    setups = a.setups @ b.setups;
    passes = a.passes @ b.passes;
    schedules = Array.map2 ( @ ) a.schedules b.schedules;
    speeds = a.speeds @ b.speeds;
    pass_counts = a.pass_counts;
    peak_words = max a.peak_words b.peak_words;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    problems =
      a.problems @ b.problems
      @
      if a.pass_counts = b.pass_counts then []
      else
        [
          "counts differ between runs of one seed: "
          ^ counts_to_string a.pass_counts
          ^ " vs "
          ^ counts_to_string b.pass_counts;
        ];
  }

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let e2e_metrics (r : e2e) =
  let npass = List.length r.passes in
  let pass = median (normalized r.passes r.speeds) in
  let c = r.pass_counts in
  let nsched = Array.length r.schedules in
  let sched =
    Array.to_list
      (Array.map (fun xs -> median (normalized xs r.speeds)) r.schedules)
  in
  let pass_note what =
    Printf.sprintf "%s per pass / median host-normalized pass of %d" what
      npass
  in
  let sched_note =
    Printf.sprintf
      "across %d distinct schedules, each its median host-normalized run of \
       %d"
      nsched npass
  in
  [
    {
      name = "setup_s";
      value = median (normalized r.setups r.speeds);
      unit_ = "s";
      note =
        Printf.sprintf "median of %d host-normalized set-ups"
          (List.length r.setups);
    };
    {
      name = "checked_ops_per_s";
      value = float_of_int c.checks /. pass;
      unit_ = "1/s";
      note = pass_note (Printf.sprintf "%d checked ops" c.checks);
    };
    {
      name = "schedules_per_s";
      value = float_of_int nsched /. pass;
      unit_ = "1/s";
      note = pass_note (Printf.sprintf "%d schedules" nsched);
    };
    {
      name = "schedule_us_p50";
      value = median sched *. 1e6;
      unit_ = "us";
      note = sched_note;
    };
    {
      name = "schedule_us_p99";
      value = quantile sched 0.99 *. 1e6;
      unit_ = "us";
      note =
        Printf.sprintf "%s; %d beyond it" sched_note
          (nsched - int_of_float (Float.ceil (0.99 *. float_of_int nsched)));
    };
    {
      name = "peak_heap_mb";
      value = float_of_int (r.peak_words * (Sys.word_size / 8)) /. 1048576.;
      unit_ = "MB";
      note = "Gc top_heap_words after the first pass";
    };
    {
      name = "wire_words_per_op";
      value = float_of_int c.wire /. float_of_int c.checks;
      unit_ = "words";
      note = "simulated, per checked op";
    };
    {
      name = "sim_time_us";
      value = c.sim_us /. float_of_int nsched;
      unit_ = "us";
      note = "simulated, per schedule";
    };
  ]

(* ---------- traced run: ladder and direct calls ---------- *)

type sink_counts = {
  mutable probe_events : int;
  mutable fast : int;
  mutable dense : int;
  mutable merges : int;
  mutable signals : int;
}

let counting_sink () =
  let c = { probe_events = 0; fast = 0; dense = 0; merges = 0; signals = 0 } in
  let sink = function
    | Probe.Detector_check { fast_path; _ } ->
        c.probe_events <- c.probe_events + 1;
        if fast_path then c.fast <- c.fast + 1 else c.dense <- c.dense + 1
    | Probe.Clock_merge _ ->
        c.probe_events <- c.probe_events + 1;
        c.merges <- c.merges + 1
    | Probe.Race_signal _ ->
        c.probe_events <- c.probe_events + 1;
        c.signals <- c.signals + 1
    | _ -> c.probe_events <- c.probe_events + 1
  in
  (c, sink)

type rung_sample = {
  seconds_ : float;
  minor : float;
  major : float;
  rcounts : counts;
}

(* One rung over every program of the workload: full major first so no
   garbage from the previous rung is swept inside the timed run. *)
let run_rung progs rung =
  Spans.with_ ~layer:"bench" ("rung:" ^ rung_name rung) (fun () ->
      List.fold_left
        (fun (acc, sinks) prog ->
          Gc.full_major ();
          let inst = build prog rung in
          let sinks =
            if rung = Probed then begin
              let c, sink = counting_sink () in
              Probe.attach (Engine.probe (Machine.sim inst.machine)) sink;
              c :: sinks
            end
            else sinks
          in
          (* start from an empty minor heap and settle promotions after,
             so the word counts are exact *)
          Gc.minor ();
          let g0 = Gc.quick_stat () in
          let t0 = now () in
          ignore (run_inst inst);
          let t1 = now () in
          Gc.minor ();
          let g1 = Gc.quick_stat () in
          ( {
              seconds_ = acc.seconds_ +. (t1 -. t0);
              minor = acc.minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
              major = acc.major +. (g1.Gc.major_words -. g0.Gc.major_words);
              rcounts = add acc.rcounts (counts_of inst.machine inst.detector);
            },
            sinks ))
        ({ seconds_ = 0.; minor = 0.; major = 0.; rcounts = zero }, [])
        progs)

(* Host interference only adds time: the fastest round of each rung is
   the least disturbed one. *)
let fastest xs = quantile xs 0.

let ladder ~seconds progs =
  let rungs = [ Plain; Checked_sparse; Checked; Probed ] in
  let samples = Hashtbl.create 8 in
  let sinks = ref [] in
  let t_end = now () +. seconds in
  let round = ref 0 in
  while !round < min_passes || now () < t_end do
    Spans.new_run ();
    List.iter
      (fun rung ->
        let s, sk = run_rung progs rung in
        if !round = 0 then sinks := sk @ !sinks;
        Hashtbl.replace samples rung
          (s :: Option.value (Hashtbl.find_opt samples rung) ~default:[]))
      rungs;
    incr round
  done;
  (samples, !sinks)

let timed_calls ~budget f =
  (* repeat [f] until [budget] seconds are spent; seconds per call *)
  let samples = ref [] in
  let t_end = now () +. budget in
  while List.length !samples < 5 || now () < t_end do
    let t0 = now () in
    f ();
    samples := (now () -. t0) :: !samples
  done;
  !samples

let sim_ns_per_event ~seed =
  let events = 100_000 in
  let noop () = () in
  let per =
    timed_calls ~budget:0.5 (fun () ->
        let sim = Engine.create ~seed () in
        Spans.with_ ~layer:"sim" "Engine.schedule" (fun () ->
            for i = 0 to events - 1 do
              Engine.schedule sim ~delay:(float_of_int (i land 1023) *. 0.01) noop
            done);
        ignore (Spans.with_ ~layer:"sim" "Engine.run" (fun () -> Engine.run sim)))
  in
  median per *. 1e9 /. float_of_int events

let core_create_s prog =
  let config = prog.config in
  let samples = ref [] in
  for _ = 1 to 7 do
    let sim = Engine.create ~seed:prog.seed () in
    let machine = prog.make_machine sim in
    Gc.full_major ();
    let t0 = now () in
    ignore
      (Spans.with_ ~layer:"core" "Detector.create" (fun () ->
           Detector.create machine ~config ()));
    samples := (now () -. t0) :: !samples
  done;
  median !samples

(* Codec.encode_piggyback on an epoch-shaped clock (one live component)
   against a same-dimension edge cache: the per-message cost of the
   clock wire. Returns (ns per call, words per frame). *)
let encode_cost ~n ~mode =
  let me = n / 2 in
  let v = Vc.create ~n in
  for _ = 1 to 3 do
    Vc.tick v ~me
  done;
  let since = Vc.copy v in
  Vc.tick v ~me;
  let batch = 100 in
  let words = ref 0 in
  let name =
    Printf.sprintf "Codec.encode_piggyback(%s,n=%d)x%d"
      (match mode with
      | Codec.Delta -> "delta"
      | Codec.Sparse -> "sparse"
      | Codec.Dense -> "dense")
      n batch
  in
  let per =
    timed_calls ~budget:0.3 (fun () ->
        Spans.with_ ~layer:"clocks" name (fun () ->
            for seq = 1 to batch do
              words := Array.length (Codec.encode_piggyback ~mode ~seq ~since v)
            done))
  in
  (median per *. 1e9 /. float_of_int batch, float_of_int !words)

type explore_direct = {
  reset_us : float;
  run_us : float;
  replay_us : float;
  minor_per_schedule : float;
  major_per_schedule : float;
  choice_points_per_schedule : float;
  events_per_schedule : float;
}

let explore_direct specs =
  let spec = List.hd specs in
  let plan =
    Scenario.prepare ~spec:spec.Explore.scenario ~n:spec.n ~seed:spec.seed
      ~faults:spec.faults ~reliable:spec.reliable ~bug:spec.bug ()
  in
  let sim = Engine.create ~seed:spec.seed () in
  let built = Scenario.instantiate plan sim in
  let resets =
    List.init 500 (fun _ ->
        let t0 = now () in
        Spans.with_ ~layer:"sim" "Engine.reset" (fun () ->
            Engine.reset ~seed:spec.seed sim);
        ignore
          (Spans.with_ ~layer:"explore" "Scenario.repopulate" (fun () ->
               Scenario.repopulate plan built.Scenario.machine));
        now () -. t0)
  in
  let ctxs = List.map Explore.create_ctx specs in
  let walks = 32 in
  let sweep ~check =
    Gc.full_major ();
    let lat = ref [] and cps = ref 0 and events = ref 0 in
    let g0 = Gc.quick_stat () in
    List.iter
      (fun ctx ->
        for w = 0 to walks - 1 do
          let t0 = now () in
          ignore
            (Spans.with_ ~layer:"explore" "Explore.exec_checked" (fun () ->
                 Explore.exec_checked ~check_determinism:check ctx (Walk w)));
          lat := (now () -. t0) :: !lat;
          let c = explore_counts ctx in
          cps := !cps + c.choice_points;
          events := !events + c.events
        done)
      ctxs;
    (* a minor collection settles the promoted-word count *)
    Gc.minor ();
    let g1 = Gc.quick_stat () in
    let k = float_of_int (walks * List.length ctxs) in
    ( median !lat *. 1e6,
      (g1.Gc.minor_words -. g0.Gc.minor_words) /. k,
      (g1.Gc.major_words -. g0.Gc.major_words) /. k,
      float_of_int !cps /. k,
      float_of_int !events /. k )
  in
  (* warm every arena once before timing *)
  List.iter
    (fun ctx -> ignore (Explore.exec_checked ctx (Walk 0)))
    ctxs;
  let off, _, _, _, _ = sweep ~check:false in
  let on, minor, major, cps, events = sweep ~check:true in
  {
    reset_us = median resets *. 1e6;
    run_us = off;
    replay_us = on -. off;
    minor_per_schedule = minor;
    major_per_schedule = major;
    choice_points_per_schedule = cps;
    events_per_schedule = events;
  }

(* ---------- output ---------- *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_metric m =
  Printf.printf "%-34s %24s %-6s (%s)\n" m.name (json_float m.value) m.unit_
    m.note

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_float m.value) m.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

let write_spans ~out_dir ~host =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat out_dir
      (Printf.sprintf "spans-%s-seed%d.json" host.workload host.seed)
  in
  let oc = open_out path in
  output_string oc "{\"otherData\": ";
  output_string oc (host_json host);
  output_string oc ",\n\"traceEvents\": [\n";
  let spans = !Spans.closed in
  let origin =
    List.fold_left (fun m s -> Float.min m s.Spans.t0) Float.infinity spans
  in
  List.iteri
    (fun i (s : Spans.span) ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
         \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
         \"run\": %d}}"
        s.name s.layer
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.run)
    (List.sort (fun a b -> compare a.Spans.t0 b.Spans.t0) spans);
  output_string oc "\n]}\n";
  close_out oc;
  path

(* ---------- main ---------- *)

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;
}

let run_e2e ~seconds ~seed workload =
  match workload with
  | "scale_push" ->
      let prog = scale_push seed in
      let r, _ = e2e_single ~seconds ~expect_races:false prog in
      (r, fun () -> verify_scale prog r)
  | "random_mix" ->
      let prog = random_mix seed in
      let r, last = e2e_single ~seconds ~expect_races:true prog in
      (r, fun () -> verify_random prog r last)
  | "explore_walks" ->
      let specs = explore_specs seed in
      let r = e2e_explore ~seconds specs in
      (r, fun () -> verify_explore specs r)
  | w -> invalid_arg ("unknown workload " ^ w)

let print_samples name xs =
  Printf.printf
    "samples %s: n=%d min=%.6g p10=%.6g p25=%.6g p50=%.6g p75=%.6g p90=%.6g \
     max=%.6g\n"
    name (List.length xs) (quantile xs 0.) (quantile xs 0.1) (quantile xs 0.25)
    (quantile xs 0.5) (quantile xs 0.75) (quantile xs 0.9) (quantile xs 1.)

let end_to_end ~seconds ~seed workload =
  let r, verify = run_e2e ~seconds ~seed workload in
  print_samples "pass_s" r.passes;
  print_samples "pass_s_normalized" (normalized r.passes r.speeds);
  print_samples "host_slowdown" r.speeds;
  print_samples "schedule_s_normalized"
    (Array.to_list
       (Array.map (fun xs -> median (normalized xs r.speeds)) r.schedules));
  print_samples "setup_s" r.setups;
  print_samples "setup_s_normalized" (normalized r.setups r.speeds);
  let problems = r.problems @ verify () in
  {
    metrics = e2e_metrics r;
    attempted = r.attempted;
    failed = (if problems <> [] && r.failed = 0 then r.attempted else r.failed);
    problems;
  }

let main_rate workload (r : e2e) =
  let m = e2e_metrics r in
  let get n = (List.find (fun x -> x.name = n) m).value in
  if workload = "explore_walks" then get "schedules_per_s"
  else get "checked_ops_per_s"

let ladder_programs ~seed workload =
  match workload with
  | "scale_push" -> [ scale_push seed ]
  | "random_mix" -> [ random_mix seed ]
  | _ -> List.map explore_program (explore_specs seed)

let traced ~seconds ~seed ~out_dir ~host workload =
  let seconds = float_of_int seconds in
  (* tracing overhead: the same seed untraced and traced, in the order
     untraced, traced, traced, untraced so that a drift of host speed
     cancels *)
  let part traced =
    Spans.enabled := traced;
    run_e2e ~seconds:(0.125 *. seconds) ~seed workload
  in
  let u1, _ = part false in
  let t1, verify = part true in
  let t2, _ = part true in
  let u2, _ = part false in
  Spans.enabled := true;
  let untraced = merge u1 u2 and traced_r = merge t1 t2 in
  let problems = ref (untraced.problems @ traced_r.problems @ verify ()) in
  let problem p = problems := !problems @ [ p ] in
  if untraced.pass_counts <> traced_r.pass_counts then
    problem
      ("traced and untraced counts differ: "
      ^ counts_to_string untraced.pass_counts
      ^ " vs "
      ^ counts_to_string traced_r.pass_counts);
  let overhead_pct =
    ((main_rate workload untraced /. main_rate workload traced_r) -. 1.) *. 100.
  in
  (* the ladder *)
  let progs = ladder_programs ~seed workload in
  let samples, sinks = ladder ~seconds:(0.3 *. seconds) progs in
  let rung r = Hashtbl.find samples r in
  let first r = (List.hd (List.rev (rung r))).rcounts in
  List.iter
    (fun r ->
      let f = first r in
      if List.exists (fun s -> s.rcounts <> f) (rung r) then
        problem ("ladder rung " ^ rung_name r ^ " counts differ between rounds"))
    [ Plain; Checked_sparse; Checked; Probed ];
  let checked = first Checked in
  if not (same_schedule (first Checked_sparse) checked) then
    problem
      ("sparse-wire and delta-wire rungs ran different schedules: "
      ^ counts_to_string (first Checked_sparse)
      ^ " vs " ^ counts_to_string checked);
  if first Probed <> checked then
    problem "attaching a probe sink changed the run's counts";
  (match workload with
  | "explore_walks" -> ()
  | _ ->
      if checked <> { traced_r.pass_counts with choice_points = 0 } then
        problem "ladder counts differ from the end-to-end pass");
  let ops = float_of_int checked.checks in
  let med r f = median (List.map f (rung r)) in
  let secs r = fastest (List.map (fun s -> s.seconds_) (rung r)) in
  let ns r = secs r *. 1e9 /. ops in
  let minor r = med r (fun s -> s.minor) /. ops in
  let major r = med r (fun s -> s.major) /. ops in
  let sink =
    List.fold_left
      (fun (a : sink_counts) (b : sink_counts) ->
        {
          probe_events = a.probe_events + b.probe_events;
          fast = a.fast + b.fast;
          dense = a.dense + b.dense;
          merges = a.merges + b.merges;
          signals = a.signals + b.signals;
        })
      { probe_events = 0; fast = 0; dense = 0; merges = 0; signals = 0 }
      sinks
  in
  if sink.fast + sink.dense <> checked.checks then
    problem "probe check count differs from the detector's checked ops";
  (* direct calls *)
  let ns_per_event = sim_ns_per_event ~seed in
  let create_s = core_create_s (List.hd progs) in
  let storage_words =
    let prog = List.hd progs in
    Gc.full_major ();
    let inst = build prog Checked in
    ignore (run_inst inst);
    match inst.detector with
    | Some d -> float_of_int (Detector.storage_words d)
    | None -> nan
  in
  let enc =
    List.concat_map
      (fun n ->
        let dns, dwords = encode_cost ~n ~mode:Codec.Delta in
        let sns, _ = encode_cost ~n ~mode:Codec.Sparse in
        let sfx = Printf.sprintf ".n%d" n in
        [
          ("clocks.encode_delta_ns" ^ sfx, dns, "ns");
          ("clocks.encode_sparse_ns" ^ sfx, sns, "ns");
          ("clocks.encode_delta_words" ^ sfx, dwords, "words");
        ])
      [ 1024; 64 ]
  in
  let ex = explore_direct (explore_specs seed) in
  let events_per_schedule =
    if workload = "explore_walks" then ex.events_per_schedule
    else float_of_int checked.events /. float_of_int (List.length progs)
  in
  let per_op v = float_of_int v /. ops in
  let m name value unit_ note = { name; value; unit_; note } in
  let rounds = List.length (rung Checked) in
  let ladder_note = Printf.sprintf "ladder, fastest of %d rounds" rounds in
  let metrics =
    [
      m "sim.events_per_op" (per_op checked.events) "count" "checked rung";
      m "sim.events_per_schedule" events_per_schedule "count" "per schedule";
      m "sim.ns_per_event" ns_per_event "ns" "Engine.schedule+run, no-op events";
      m "net.msgs_per_op" (per_op checked.msgs) "count" "checked rung";
      m "net.clock_words_per_op" (per_op checked.clock_words) "words"
        "checked rung";
      m "rdma.plain_ns_per_op" (ns Plain) "ns" ladder_note;
      m "rdma.plain_major_words_per_op" (major Plain) "words" ladder_note;
      m "core.ns_per_op" (ns Checked_sparse -. ns Plain) "ns" ladder_note;
      m "core.minor_words_per_op"
        (minor Checked_sparse -. minor Plain)
        "words" ladder_note;
      m "core.major_words_per_op"
        (major Checked_sparse -. major Plain)
        "words" ladder_note;
      m "core.fast_path_frac"
        (float_of_int sink.fast /. float_of_int (sink.fast + sink.dense))
        "frac" "probe sink";
      m "core.merges_per_op" (per_op sink.merges) "count" "probe sink";
      m "core.dense_path_per_op" (per_op sink.dense) "count" "probe sink";
      m "core.race_signals_per_op" (per_op sink.signals) "count" "probe sink";
      m "core.create_s" create_s "s" "Detector.create, median of 7";
      m "core.storage_words" storage_words "words" "after one checked run";
      m "clocks.wire_ns_per_op" (ns Checked -. ns Checked_sparse) "ns"
        ladder_note;
      m "clocks.wire_major_words_per_op"
        (major Checked -. major Checked_sparse)
        "words" ladder_note;
    ]
    @ List.map (fun (n, v, u) -> m n v u "direct calls") enc
    @ [
        m "obs.probe_events_per_op" (per_op sink.probe_events) "count"
          "probe sink";
        m "explore.reset_us" ex.reset_us "us"
          "Engine.reset + Scenario.repopulate, median of 500";
        m "explore.run_us" ex.run_us "us" "exec_checked, check off, median";
        m "explore.replay_us" ex.replay_us "us" "check on - check off, medians";
        m "explore.minor_words_per_schedule" ex.minor_per_schedule "words"
          "check on";
        m "explore.major_words_per_schedule" ex.major_per_schedule "words"
          "check on";
        m "explore.choice_points_per_schedule" ex.choice_points_per_schedule
          "count" "check on";
        m "trace.overhead_pct" overhead_pct "%"
          (Printf.sprintf "%s untraced %.6g vs traced %.6g"
             (if workload = "explore_walks" then "schedules_per_s"
              else "checked_ops_per_s")
             (main_rate workload untraced)
             (main_rate workload traced_r));
      ]
  in
  Printf.printf "ladder (fastest seconds per rung of %d rounds):\n" rounds;
  List.iter
    (fun r ->
      Printf.printf "  %-16s %.6f s  %s\n" (rung_name r) (secs r)
        (counts_to_string (first r)))
    [ Plain; Checked_sparse; Checked; Probed ];
  Printf.printf
    "layer self time from the ladder (ns per checked op): sim+net+rdma %.1f, \
     core %.1f, clocks %.1f, obs %.1f\n"
    (ns Plain)
    (ns Checked_sparse -. ns Plain)
    (ns Checked -. ns Checked_sparse)
    (ns Probed -. ns Checked);
  Printf.printf "span self time (s, calls) by layer and call:\n";
  List.iter
    (fun ((layer, name), (total, calls)) ->
      Printf.printf "  %-8s %-44s %12.6f %8d\n" layer name total calls)
    (Spans.self_times ());
  let path = write_spans ~out_dir ~host in
  Printf.printf "spans: %d written to %s\n" (List.length !Spans.closed) path;
  {
    metrics;
    attempted = traced_r.attempted;
    failed =
      (if !problems <> [] && traced_r.failed = 0 then traced_r.attempted
       else traced_r.failed);
    problems = !problems;
  }

let usage =
  "bench.exe --workload scale_push|random_mix|explore_walks --seed N \
   --seconds S --trace 0|1 [--commit ID] [--out-dir DIR]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and commit = ref "unknown" and out_dir = ref "perfbench/_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--commit", Arg.Set_string commit, "ID");
      ("--out-dir", Arg.Set_string out_dir, "DIR");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload [ "scale_push"; "random_mix"; "explore_walks" ]))
    || !seconds < 1
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let host =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      commit = !commit;
    }
  in
  Printf.printf "host: %s\n%!" (host_json host);
  let o =
    if host.trace then
      traced ~seconds:!seconds ~seed:!seed ~out_dir:!out_dir ~host !workload
    else end_to_end ~seconds:(float_of_int !seconds) ~seed:!seed !workload
  in
  List.iter print_metric o.metrics;
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) o.problems;
  let correct = o.problems = [] && o.failed = 0 in
  print_endline
    (result_line ~correct ~attempted:o.attempted ~failed:o.failed o.metrics);
  exit (if correct then 0 else 1)
