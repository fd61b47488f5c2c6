(* dsmcheck: command-line driver for the DSM race-detection reproduction.

   Subcommands:
     dsmcheck list                      list the paper experiments
     dsmcheck experiment E5             replay one experiment (or "all")
     dsmcheck workload random ...       run a workload under the detector
*)

open Cmdliner
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Env = Dsm_pgas.Env
module Collectives = Dsm_pgas.Collectives

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* ---------- observability plumbing ---------- *)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Attach the requested probe sinks to a simulation. Must run before the
   workload populates the machine so the sinks observe the run end to
   end. *)
let attach_telemetry sim ~trace_out ~metrics =
  let probe = Dsm_sim.Engine.probe sim in
  let timeline =
    match trace_out with
    | Some _ -> Some (Dsm_obs.Timeline.attach probe)
    | None -> None
  in
  let registry =
    if metrics then begin
      let r = Dsm_obs.Metrics.create () in
      ignore (Dsm_obs.Meter.attach r probe);
      Some r
    end
    else None
  in
  (timeline, registry)

let write_string_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* Write the accumulated timeline, then re-validate the bytes on disk
   against the trace-event schema so a bad export fails here instead of
   inside Perfetto. *)
let write_trace timeline path =
  Dsm_obs.Timeline.write_file timeline path;
  match Dsm_obs.Trace_json.validate_trace (read_file path) with
  | Ok s ->
      Format.printf
        "trace out      : %s (%d events: %d slices, %d instants, %d flow \
         pairs, %d lanes)@."
        path s.Dsm_obs.Trace_json.events s.slices s.instants s.flows s.lanes;
      Ok ()
  | Error msg ->
      Error (Printf.sprintf "%s: exporter wrote invalid trace JSON: %s" path msg)

let print_metrics = function
  | None -> ()
  | Some registry ->
      Format.printf "@[<v 2>metrics        :@,%a@]@." Dsm_obs.Metrics.pp
        (Dsm_obs.Metrics.snapshot registry)

let finish_telemetry ~timeline ~trace_out ~registry =
  print_metrics registry;
  match (timeline, trace_out) with
  | Some tl, Some path -> write_trace tl path
  | _ -> Ok ()

(* ---------- list ---------- *)

let list_cmd =
  let doc = "List the experiments (E1..E10 reproduce the paper; E11+ are extensions)." in
  let run () =
    List.iter
      (fun e ->
        Format.printf "%-4s %s@." e.Dsm_experiments.Harness.id
          e.Dsm_experiments.Harness.paper_artifact)
      Dsm_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---------- experiment ---------- *)

let experiment_cmd =
  let doc = "Replay one experiment section, or $(b,all) of them." in
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id (E1..E17) or 'all'.")
  in
  let run id =
    let ppf = Format.std_formatter in
    if String.lowercase_ascii id = "all" then begin
      Dsm_experiments.Registry.run_all ppf;
      `Ok ()
    end
    else
      match Dsm_experiments.Registry.run_only ppf id with
      | Ok () -> `Ok ()
      | Error msg -> `Error (false, msg)
  in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(ret (const run $ id))

(* ---------- workload ---------- *)

type which = Random | Master_worker | Stencil | Pipeline | Locked_counter

let which_conv =
  let parse = function
    | "random" -> Ok Random
    | "master-worker" -> Ok Master_worker
    | "stencil" -> Ok Stencil
    | "pipeline" -> Ok Pipeline
    | "locked-counter" -> Ok Locked_counter
    | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
  in
  let print ppf = function
    | Random -> Format.pp_print_string ppf "random"
    | Master_worker -> Format.pp_print_string ppf "master-worker"
    | Stencil -> Format.pp_print_string ppf "stencil"
    | Pipeline -> Format.pp_print_string ppf "pipeline"
    | Locked_counter -> Format.pp_print_string ppf "locked-counter"
  in
  Arg.conv (parse, print)

let run_workload which n seed ops racy detect coherence verbose explain dot_file csv_file report_csv =
  setup_logs verbose;
  if n < 2 then `Error (false, "need at least 2 processes")
  else begin
    let sim = Dsm_sim.Engine.create ~seed ()
    in
    let machine = Machine.create sim ~n () in
    let checker =
      if coherence then Some (Dsm_rdma.Coherence.attach machine) else None
    in
    let config =
      {
        Config.default with
        Config.record_trace = dot_file <> None || csv_file <> None || explain;
        granularity = Config.Word;
      }
    in
    let detector =
      if detect then Some (Detector.create machine ~config ~verbose ())
      else None
    in
    let env =
      match detector with
      | Some d -> Env.checked d
      | None -> Env.plain machine
    in
    let collectives = Collectives.create env in
    (match which with
    | Random ->
        Dsm_workload.Random_access.setup env ~collectives
          { Dsm_workload.Random_access.default with ops_per_proc = ops; seed }
    | Master_worker ->
        Dsm_workload.Master_worker.setup env ~collectives
          { Dsm_workload.Master_worker.default with tasks_per_worker = ops; racy; seed }
    | Stencil ->
        ignore
          (Dsm_workload.Stencil.setup env ~collectives
             { Dsm_workload.Stencil.default with iterations = ops; seed })
    | Pipeline ->
        Dsm_workload.Pipeline.setup env
          { Dsm_workload.Pipeline.default with batches = ops; seed }
    | Locked_counter ->
        Dsm_workload.Locked_counter.setup env
          { Dsm_workload.Locked_counter.default with
            increments_per_proc = ops; seed });
    (match Machine.run machine with
    | Dsm_sim.Engine.Completed -> ()
    | _ -> prerr_endline "warning: simulation did not complete");
    Format.printf "simulated time : %.2f us@." (Dsm_sim.Engine.now sim);
    (match checker with
    | None -> ()
    | Some ch ->
        Format.printf "coherence      : %d words checked, %d violation(s)@."
          (Dsm_rdma.Coherence.checked_words ch)
          (List.length (Dsm_rdma.Coherence.violations ch));
        List.iter
          (fun v ->
            Format.printf "  %a@." Dsm_rdma.Coherence.pp_violation v)
          (Dsm_rdma.Coherence.violations ch));
    Format.printf "messages       : %d (%d words)@."
      (Machine.fabric_messages machine)
      (Machine.fabric_words machine);
    (match detector with
    | None -> Format.printf "detection      : off@."
    | Some d ->
        Format.printf "checked ops    : %d@." (Detector.checked_ops d);
        Format.printf "@[<v>%a@]@." Report.pp_grouped (Detector.report d);
        (match report_csv with
        | Some path ->
            let oc = open_out path in
            output_string oc (Report.to_csv (Detector.report d));
            close_out oc;
            Format.printf "signals csv    : %s@." path
        | None -> ());
        if verbose then
          Format.printf "@[<v>%a@]@." Report.pp_summary (Detector.report d);
        (match Detector.trace d with
        | Some trace ->
            if explain then begin
              (* Pair each signalled access with one ground-truth race it
                 belongs to and show why the accesses are unordered. *)
              let flagged = Report.flagged_event_ids (Detector.report d) in
              let shown = Hashtbl.create 8 in
              List.iter
                (fun { Dsm_trace.Trace.first; second } ->
                  if
                    Hashtbl.mem flagged second.Dsm_trace.Event.id
                    && not (Hashtbl.mem shown second.Dsm_trace.Event.id)
                  then begin
                    Hashtbl.add shown second.Dsm_trace.Event.id ();
                    Format.printf "@.%s"
                      (Dsm_trace.Trace.explain trace
                         ~first:first.Dsm_trace.Event.id
                         ~second:second.Dsm_trace.Event.id)
                  end)
                (Dsm_trace.Trace.races trace)
            end;
            Format.printf "trace          : %a@." Dsm_trace.Export.pp_summary
              (Dsm_trace.Export.summary trace);
            (match dot_file with
            | Some path ->
                let oc = open_out path in
                output_string oc (Dsm_trace.Trace.to_dot trace);
                close_out oc;
                Format.printf "trace graph    : %s@." path
            | None -> ());
            (match csv_file with
            | Some path ->
                let oc = open_out path in
                output_string oc (Dsm_trace.Export.to_csv trace);
                close_out oc;
                Format.printf "trace csv      : %s@." path
            | None -> ())
        | None -> ()));
    `Ok ()
  end

let workload_cmd =
  let doc = "Run a workload on the simulated DSM machine." in
  let which =
    Arg.(
      required
      & pos 0 (some which_conv) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "random, master-worker, stencil, pipeline, or locked-counter.")
  in
  let n =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Process count.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let ops =
    Arg.(
      value & opt int 20
      & info [ "ops" ] ~doc:"Ops per process / tasks / iterations.")
  in
  let racy =
    Arg.(value & flag & info [ "racy" ] ~doc:"Racy master-worker variant.")
  in
  let detect =
    Arg.(
      value & opt bool true
      & info [ "detect" ] ~doc:"Enable the race detector.")
  in
  let coherence =
    Arg.(
      value & flag
      & info [ "coherence" ] ~doc:"Attach the memory-coherence checker.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print signals live.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"For each signal, print why the pair is unordered (Lemma 1).")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dot" ] ~docv:"FILE" ~doc:"Write the HB graph as DOT.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-csv" ] ~docv:"FILE" ~doc:"Write the event trace as CSV.")
  in
  let report_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "signals-csv" ] ~docv:"FILE"
          ~doc:"Write the race signals as CSV.")
  in
  Cmd.v (Cmd.info "workload" ~doc)
    Term.(
      ret
        (const run_workload $ which $ n $ seed $ ops $ racy $ detect
       $ coherence $ verbose $ explain $ dot $ csv $ report_csv))

(* ---------- scale ---------- *)

let rep_name = function
  | Config.Dense_vector -> "dense"
  | Config.Sparse_vector -> "sparse"

let rep_conv =
  let parse = function
    | "dense" -> Ok Config.Dense_vector
    | "sparse" -> Ok Config.Sparse_vector
    | s -> Error (`Msg (Printf.sprintf "unknown clock representation %S" s))
  in
  Arg.conv (parse, fun ppf r -> Format.pp_print_string ppf (rep_name r))

let wire_conv =
  let parse = function
    | "dense" -> Ok Config.Dense_wire
    | "sparse" -> Ok Config.Sparse_wire
    | "delta" -> Ok Config.Delta_wire
    | s -> Error (`Msg (Printf.sprintf "unknown clock wire encoding %S" s))
  in
  let print ppf w = Format.pp_print_string ppf (Config.clock_wire_name w) in
  Arg.conv (parse, print)

module Model = Dsm_rdma.Model

let model_conv =
  let parse s =
    match Model.of_name s with Ok m -> Ok m | Error msg -> Error (`Msg msg)
  in
  let print ppf m = Format.pp_print_string ppf (Model.name m) in
  Arg.conv (parse, print)

let model_arg ~extra_doc =
  Arg.(
    value
    & opt model_conv Model.default
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          ("Memory-model backend: nic_atomic (the paper's, default), \
            relaxed, eventual, or seq_consistent. Semantic — it changes \
            the protocol's ordering guarantees and the detector's \
            happens-before edges." ^ extra_doc))

let run_scale n rounds chunk racy batched rep shards wire model seed detect
    metrics_file verbose =
  setup_logs verbose;
  if n < 2 then `Error (false, "need at least 2 processes")
  else if racy && n < 3 then
    `Error (false, "racy mode needs at least 3 processes")
  else begin
    let sim = Dsm_sim.Engine.create ~seed () in
    let registry =
      match metrics_file with
      | None -> None
      | Some _ ->
          let r = Dsm_obs.Metrics.create () in
          ignore (Dsm_obs.Meter.attach r (Dsm_sim.Engine.probe sim));
          Some r
    in
    (* tiny segments: at n = 1024 the default 4096-word segments would
       cost tens of megabytes per run for buffers of a few words *)
    let words = max 64 chunk in
    let machine =
      Machine.create sim ~n ~private_words:words ~public_words:words ~model ()
    in
    let config =
      {
        Config.default with
        Config.clock_rep = rep;
        clock_wire = wire;
        store_shards = shards;
        granularity = Config.Word;
        memory_model = model;
      }
    in
    let detector =
      if detect then Some (Detector.create machine ~config ()) else None
    in
    let env =
      match detector with
      | Some d -> Env.checked d
      | None -> Env.plain machine
    in
    Dsm_workload.Scale.setup env
      { Dsm_workload.Scale.rounds; chunk; racy; batched; think_mean = 0.0;
        seed };
    let t0 = Unix.gettimeofday () in
    (match Machine.run machine with
    | Dsm_sim.Engine.Completed -> ()
    | _ -> prerr_endline "warning: simulation did not complete");
    let wall = Unix.gettimeofday () -. t0 in
    Format.printf "processes      : %d (%s clocks, %d store shard(s)%s)@." n
      (rep_name rep) shards
      (if batched then ", batched coherence" else "");
    Format.printf "simulated time : %.2f us@." (Dsm_sim.Engine.now sim);
    Format.printf "messages       : %d (%d words)@."
      (Machine.fabric_messages machine)
      (Machine.fabric_words machine);
    (match detector with
    | None -> Format.printf "detection      : off@."
    | Some d ->
        let ops = Detector.checked_ops d in
        Format.printf "checked ops    : %d (%.0f ops/s wall)@." ops
          (if wall > 0. then float_of_int ops /. wall else 0.);
        Format.printf "race signals   : %d@." (Report.count (Detector.report d));
        Format.printf "clock storage  : %d words, %d compact clock(s)@."
          (Detector.storage_words d) (Detector.epoch_clocks d);
        let dense, sparse, delta = Machine.clock_encodings machine in
        Format.printf
          "clock traffic  : %d piggybacked words (%s wire: %d dense, %d \
           sparse, %d delta)@."
          (Detector.clock_words_shipped d)
          (Config.clock_wire_name wire)
          dense sparse delta);
    (match (metrics_file, registry) with
    | Some path, Some reg ->
        write_string_file path
          (Dsm_obs.Metrics.to_json_string (Dsm_obs.Metrics.snapshot reg));
        Format.printf "metrics        : %s@." path
    | _ -> ());
    `Ok ()
  end

let scale_cmd =
  let doc =
    "Run the neighbour-push scaling workload: sparse clocks, sharded \
     clock stores and batched coherence at process counts far past the \
     paper's ~10."
  in
  let n =
    Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Process count.")
  in
  let rounds =
    Arg.(value & opt int 2 & info [ "rounds" ] ~doc:"Pushes per process.")
  in
  let chunk =
    Arg.(
      value & opt int 4
      & info [ "chunk" ] ~doc:"Contiguous slots per push (batch size).")
  in
  let racy =
    Arg.(
      value & flag
      & info [ "racy" ]
          ~doc:"Both ring neighbours write each buffer (every slot races).")
  in
  let batched =
    Arg.(
      value & opt bool true
      & info [ "batched" ]
          ~doc:"Coalesce each push into one fabric message.")
  in
  let rep =
    Arg.(
      value
      & opt rep_conv Config.Sparse_vector
      & info [ "rep" ] ~docv:"REP"
          ~doc:
            "Clock representation: sparse (adaptive: epoch, then sorted \
             pairs, then dense) or dense (the always-vector ablation).")
  in
  let shards =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~doc:"Clock-store shards (power of two).")
  in
  let wire =
    Arg.(
      value
      & opt wire_conv Config.Delta_wire
      & info [ "clock-wire" ] ~docv:"ENC"
          ~doc:
            "Clock piggyback wire encoding: dense, sparse, or delta. \
             Accounting-only — the schedule is identical for every \
             choice; only the reported clock traffic changes.")
  in
  let model = model_arg ~extra_doc:"" in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Engine seed.") in
  let detect =
    Arg.(
      value & opt bool true
      & info [ "detect" ] ~doc:"Enable the race detector.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Attach the metrics registry to the run and write its JSON \
             snapshot to $(docv) after completion.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      ret
        (const run_scale $ n $ rounds $ chunk $ racy $ batched $ rep
       $ shards $ wire $ model $ seed $ detect $ metrics_file $ verbose))

(* ---------- run (mini-language programs) ---------- *)

(* Flight-recorder + provenance explanation of a finished run: correlate
   each race signal of the report with the recorded event window. The
   recorder is a passive sink, so attaching it never changes the run. *)
let explain_finished_run ~explain ~race_report ~flight detector =
  if explain || race_report <> None then begin
    let window =
      match flight with Some f -> Dsm_obs.Flight.events f | None -> []
    in
    let explanations =
      match detector with
      | None -> []
      | Some d ->
          Dsm_core.Diagnose.explain_report ~window (Detector.report d)
    in
    if explain then begin
      if explanations = [] then
        Format.printf "explain        : no race signal to explain@."
      else
        List.iter
          (fun e -> print_string (Dsm_obs.Explain.to_text e))
          explanations
    end;
    match race_report with
    | None -> ()
    | Some path ->
        write_string_file path (Dsm_obs.Explain.list_to_json explanations);
        Format.printf "race report    : %s@." path
  end

let run_source path n model instrument detect verbose trace_out metrics
    explain race_report =
  setup_logs verbose;
  let source = read_file path in
  match Dsm_lang.Parser.parse source with
  | Error msg -> `Error (false, Printf.sprintf "%s: %s" path msg)
  | Ok prog -> (
      match Dsm_lang.Compile.lower ~instrument prog with
      | Error msg -> `Error (false, msg)
      | Ok ir ->
          let sim = Dsm_sim.Engine.create () in
          let machine = Machine.create sim ~n ~model () in
          let timeline, registry = attach_telemetry sim ~trace_out ~metrics in
          let flight =
            if explain || race_report <> None then
              Some (Dsm_obs.Flight.attach (Dsm_sim.Engine.probe sim))
            else None
          in
          let detector =
            if detect then Some (Detector.create machine ~verbose ())
            else None
          in
          let rt = Dsm_lang.Exec.setup machine ?detector ir in
          (match Machine.run machine with
          | Dsm_sim.Engine.Completed -> ()
          | _ -> prerr_endline "warning: simulation did not complete");
          Format.printf "wrappers       : %d checked / %d raw accesses@."
            (Dsm_lang.Ir.checked_accesses ir)
            (Dsm_lang.Ir.raw_accesses ir);
          Format.printf "simulated time : %.2f us@." (Dsm_sim.Engine.now sim);
          List.iter
            (fun (d : Dsm_lang.Ast.shared_decl) ->
              let contents = Dsm_lang.Exec.array_contents rt d.name in
              Format.printf "%-14s : [%s]@." d.name
                (String.concat " "
                   (Array.to_list (Array.map string_of_int contents))))
            prog.Dsm_lang.Ast.shared;
          (match detector with
          | None -> ()
          | Some d ->
              Format.printf "@[<v>%a@]@." Report.pp_grouped
                (Detector.report d));
          explain_finished_run ~explain ~race_report ~flight detector;
          (match finish_telemetry ~timeline ~trace_out ~registry with
          | Ok () -> `Ok ()
          | Error msg -> `Error (false, msg)))

let run_figure name n model detect verbose trace_out metrics explain
    race_report =
  setup_logs verbose;
  let n = max n Dsm_experiments.Figures.figure_min_nodes in
  let sim = Dsm_sim.Engine.create () in
  let machine = Machine.create sim ~n ~model () in
  let timeline, registry = attach_telemetry sim ~trace_out ~metrics in
  let flight =
    if explain || race_report <> None then
      Some (Dsm_obs.Flight.attach (Dsm_sim.Engine.probe sim))
    else None
  in
  match Dsm_experiments.Figures.build_figure name machine with
  | Error msg -> `Error (false, msg)
  | Ok detector ->
      (match Machine.run machine with
      | Dsm_sim.Engine.Completed -> ()
      | _ -> prerr_endline "warning: simulation did not complete");
      Format.printf "scenario       : %s (%d processes)@." name n;
      Format.printf "simulated time : %.2f us@." (Dsm_sim.Engine.now sim);
      Format.printf "messages       : %d (%d words)@."
        (Machine.fabric_messages machine)
        (Machine.fabric_words machine);
      (match detector with
      | Some d when detect ->
          Format.printf "checked ops    : %d@." (Detector.checked_ops d);
          Format.printf "@[<v>%a@]@." Report.pp_grouped (Detector.report d)
      | _ -> ());
      explain_finished_run ~explain ~race_report ~flight
        (if detect then detector else None);
      (match finish_telemetry ~timeline ~trace_out ~registry with
      | Ok () -> `Ok ()
      | Error msg -> `Error (false, msg))

let run_program path scenario n model instrument detect verbose trace_out
    metrics explain race_report =
  match (path, scenario) with
  | None, None -> `Error (true, "either FILE or --scenario NAME is required")
  | Some _, Some _ -> `Error (true, "FILE and --scenario are mutually exclusive")
  | None, Some name ->
      run_figure name n model detect verbose trace_out metrics explain
        race_report
  | Some path, None -> (
      try
        run_source path n model instrument detect verbose trace_out metrics
          explain race_report
      with
      | Dsm_sim.Engine.Process_failure
          (proc, Dsm_lang.Exec.Runtime_error msg) ->
          (* a fault of the program, not of the tool *)
          `Error (false, Printf.sprintf "%s: %s" proc msg))

let run_cmd =
  let doc =
    "Compile and run a mini-language program (see programs/*.dsm), or one \
     of the paper's figure scenarios with $(b,--scenario)."
  in
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Program source file.")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Run a figure scenario instead of a program file: %s."
               (String.concat ", " Dsm_experiments.Figures.figure_names)))
  in
  let n =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Process count.")
  in
  let model = model_arg ~extra_doc:"" in
  let instrument =
    Arg.(
      value & opt bool true
      & info [ "instrument" ]
          ~doc:"Let the pre-compiler insert detection wrappers (§5.2).")
  in
  let detect =
    Arg.(
      value & opt bool true
      & info [ "detect" ] ~doc:"Attach the race detector.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print signals live.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome/Perfetto trace-event JSON timeline of the run \
             (load it at ui.perfetto.dev or chrome://tracing).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics-registry snapshot after the run.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Explain every race signal: both conflicting accesses with \
             their clocks, the incomparable components, and the most \
             recent sync edge between the two processes in the \
             flight-recorder window.")
  in
  let race_report =
    Arg.(
      value
      & opt (some string) None
      & info [ "race-report" ] ~docv:"FILE"
          ~doc:"Write the race explanations as a JSON document to $(docv).")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run_program $ path $ scenario $ n $ model $ instrument
       $ detect $ verbose $ trace_out $ metrics $ explain $ race_report))

(* ---------- explore ---------- *)

module Explore = Dsm_explore.Explore
module Token = Dsm_explore.Token

let print_violations r =
  List.iter
    (fun v -> Format.printf "violation      : %a@." Explore.pp_violation v)
    r.Explore.violations

(* Replay a token with a probe sink that reconstructs the message arrows
   and race marks of the run, and render them as the paper-style
   space-time diagram. Arrow matching is FIFO per (src, dst, label) —
   exact under in-order delivery, best-effort under reordering faults. *)
let replay_with_diagram token =
  let arrows = ref [] in
  let marks = ref [] in
  let pending : (int * int * string, float Queue.t) Hashtbl.t =
    Hashtbl.create 32
  in
  let sink = function
    | Dsm_obs.Probe.Msg_sent { time; src; dst; label; _ } ->
        let q =
          match Hashtbl.find_opt pending (src, dst, label) with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.add pending (src, dst, label) q;
              q
        in
        Queue.push time q
    | Dsm_obs.Probe.Msg_delivered { time; src; dst; label; _ } -> (
        match Hashtbl.find_opt pending (src, dst, label) with
        | Some q when not (Queue.is_empty q) ->
            let send_time = Queue.pop q in
            arrows :=
              { Dsm_trace.Spacetime.send_time; recv_time = time; src; dst;
                label }
              :: !arrows
        | _ -> ())
    | Dsm_obs.Probe.Race_signal { time; pid; node; offset; len; _ } ->
        marks :=
          {
            Dsm_trace.Spacetime.time;
            pid;
            text = Printf.sprintf "RACE n%d+%d/%d" node offset len;
          }
          :: !marks
    | _ -> ()
  in
  match
    Explore.replay ~probe:(fun bus -> Dsm_obs.Probe.attach bus sink) token
  with
  | Error _ as e -> e
  | Ok r -> Ok (r, List.rev !arrows, List.rev !marks)

(* One deterministic explanation pass over a repro token: flight-recorded
   replay, explanation text/JSON, optional annotated Perfetto timeline.
   Every --explain path (explore finish, --replay) goes through here, so
   the rendered bytes are identical no matter how the token was found. *)
let explain_token ~explain ~race_report ~trace_out_violation token =
  if explain || race_report <> None || trace_out_violation <> None then begin
    let tl =
      match trace_out_violation with
      | Some _ -> Some (Dsm_obs.Timeline.create ())
      | None -> None
    in
    match Dsm_explore.Explain_run.of_token ?timeline:tl token with
    | Error msg -> Printf.eprintf "warning: explanation replay failed: %s\n" msg
    | Ok o ->
        if explain then begin
          if o.Dsm_explore.Explain_run.text = "" then
            Format.printf
              "explain        : no race signal and no provenance conflict \
               in this run@."
          else print_string o.Dsm_explore.Explain_run.text
        end;
        (match race_report with
        | None -> ()
        | Some path ->
            write_string_file path o.Dsm_explore.Explain_run.json;
            Format.printf "race report    : %s@." path);
        (match (tl, trace_out_violation) with
        | Some tl, Some path -> (
            match write_trace tl path with
            | Ok () -> ()
            | Error msg -> Printf.eprintf "warning: %s\n" msg)
        | _ -> ())
  end

(* Differential exploration: replay each explored schedule under two
   backends and report the first schedule whose verdicts differ, with a
   replay token per model and the sync edges the weaker model lacks. *)
let run_diff_models spec ~pair ~runs ~depth ~explain ~race_report =
  match String.split_on_char ',' pair with
  | [ a; b ] -> (
      match (Model.of_name (String.trim a), Model.of_name (String.trim b)) with
      | Error msg, _ | _, Error msg -> `Error (false, msg)
      | Ok ma, Ok mb when ma = mb ->
          `Error
            ( false,
              "--diff-models needs two distinct backends (got "
              ^ Model.name ma ^ " twice)" )
      | Ok ma, Ok mb -> (
          match Dsm_explore.Diff.run ?depth ~runs spec (ma, mb) with
          | exception Invalid_argument msg -> `Error (false, msg)
          | exception Sys_error msg -> `Error (false, msg)
          | o ->
              Format.printf
                "schedules      : %d explored under %s, replayed under %s@."
                o.Dsm_explore.Diff.schedules (Model.name ma) (Model.name mb);
              Format.printf
                "differing      : %d (%d flip a race verdict)@."
                o.Dsm_explore.Diff.differing o.Dsm_explore.Diff.race_dependent;
              (match o.Dsm_explore.Diff.first with
              | None ->
                  Format.printf
                    "verdicts       : identical under both models@.";
                  `Ok ()
              | Some f ->
                  Format.printf "races          : %d under %s, %d under %s@."
                    f.Dsm_explore.Diff.races_a (Model.name ma)
                    f.Dsm_explore.Diff.races_b (Model.name mb);
                  Format.printf "repro (%s) : %s@."
                    (Model.name ma)
                    (Token.to_string f.Dsm_explore.Diff.token_a);
                  Format.printf "repro (%s) : %s@."
                    (Model.name mb)
                    (Token.to_string f.Dsm_explore.Diff.token_b);
                  List.iter
                    (fun e -> Format.printf "missing edge   : %s@." e)
                    f.Dsm_explore.Diff.missing_edges;
                  (* Explain the run on the side that signalled races —
                     the explanation names the conflicting accesses the
                     missing edge would have ordered. *)
                  let racy_token =
                    if
                      f.Dsm_explore.Diff.races_b > f.Dsm_explore.Diff.races_a
                    then f.Dsm_explore.Diff.token_b
                    else f.Dsm_explore.Diff.token_a
                  in
                  explain_token ~explain ~race_report
                    ~trace_out_violation:None racy_token;
                  `Error
                    ( false,
                      "model-dependent verdict (see the per-model repro \
                       tokens)" ))))
  | _ ->
      `Error
        ( false,
          "--diff-models takes exactly two comma-separated backends, e.g. \
           nic_atomic,relaxed" )

let run_explore scenario n seed runs depth jobs chunk dpor latency clock_wire
    model diff_models force faults reliable bug max_events replay no_minimize
    metrics expect_races trace_out_violation explain race_report verbose =
  setup_logs verbose;
  if chunk < 1 then
    `Error (false, "--chunk must be a positive number of runs per claim")
  else if diff_models <> None && replay <> None then
    `Error
      ( false,
        "--diff-models explores fresh schedules; it cannot be combined \
         with --replay (replay one token per model instead)" )
  else if diff_models <> None && dpor then
    `Error
      ( false,
        "--diff-models replays every explored schedule under both \
         backends; --dpor's pruning is justified per model and does not \
         compose — drop one of them" )
  else if diff_models <> None && jobs > 1 then
    `Error
      (false, "--diff-models is a single-domain comparison; drop --jobs")
  else if dpor && replay <> None then
    `Error
      ( false,
        "--dpor cannot be combined with --replay: a token replays exactly \
         one schedule, there is nothing to prune" )
  else if dpor && jobs > 1 then
    `Error
      ( false,
        "--dpor is a single-domain search (its sleep sets are sequential \
         state); drop --jobs or use --jobs 1" )
  else if dpor && depth = None then
    `Error
      ( false,
        "--dpor requires --depth: it prunes the bounded-exhaustive DFS, \
         not random walks" )
  else
  match replay with
  | Some token_str -> (
      match Token.of_string token_str with
      | Error msg -> `Error (false, msg)
      | Ok token when
          (match model with
           | Some m -> m <> token.Token.model && not force
           | None -> false) ->
          (* A token replays the run that minted it, and the run is a
             function of the model — silently replaying under another
             backend would "reproduce" a different run. *)
          let m = Option.get model in
          `Error
            ( false,
              Printf.sprintf
                "token was minted under --model %s but --model %s was \
                 given; the schedule and verdict are model-dependent. \
                 Pass --force to replay the decision prefix under %s \
                 anyway."
                (Model.name token.Token.model)
                (Model.name m) (Model.name m) )
      | Ok token -> (
          let token =
            match model with
            | Some m when force -> { token with Token.model = m }
            | _ -> token
          in
          match replay_with_diagram token with
          | Error msg -> `Error (false, msg)
          | Ok (r, arrows, marks) ->
              Format.printf "fault plan     : %s@."
                (Dsm_net.Fault.to_string token.Token.faults);
              Format.printf "@[<v>%a@]@." Explore.pp_result r;
              print_violations r;
              Format.printf "%s@."
                (Dsm_trace.Spacetime.render ~n:token.Token.n ~arrows ~marks
                   ());
              if r.Explore.violations = [] then
                Format.printf "replay         : no invariant violated@.";
              explain_token ~explain ~race_report
                ~trace_out_violation:None token;
              `Ok ()))
  | None -> (
      match Dsm_net.Latency.of_string latency with
      | Error msg -> `Error (false, msg)
      | Ok latency -> (
      let faults =
        match faults with
        | None -> Dsm_net.Fault.none
        | Some s -> Dsm_net.Fault.of_string s
      in
      let spec =
        {
          Explore.scenario;
          n;
          seed;
          latency;
          clock_wire;
          model = Option.value model ~default:Model.default;
          faults;
          reliable;
          bug;
          max_events;
        }
      in
      match diff_models with
      | Some pair ->
          run_diff_models spec ~pair ~runs ~depth ~explain ~race_report
      | None ->
      (* --expect-races needs the merged race counter even when the user
         did not ask for a metrics printout *)
      let registry =
        if metrics || expect_races <> None then
          Some (Dsm_obs.Metrics.create ())
        else None
      in
      let print_metrics r = print_metrics (if metrics then r else None) in
      (* Assert the exploration-wide race count after a clean search;
         invariant violations already exit nonzero on their own. *)
      let check_expected_races ok =
        match (expect_races, registry) with
        | None, _ | _, None -> ok
        | Some want, Some reg ->
            let races =
              Dsm_obs.Metrics.value
                (Dsm_obs.Metrics.counter reg "detector.race_signal")
            in
            Format.printf "race signals   : %d (expected %s)@." races
              (if want then "some" else "none");
            if want && races = 0 then
              `Error
                ( false,
                  "expected races, but no schedule signalled one \
                   (detector.race_signal = 0)" )
            else if (not want) && races > 0 then
              `Error
                ( false,
                  Printf.sprintf
                    "expected a race-free scenario, but \
                     detector.race_signal = %d"
                    races )
            else ok
      in
      let progress =
        if jobs > 1 then begin
          (* Rate-limited stderr heartbeat fed by the shared completion
             counters; the CAS on [last] keeps concurrent workers from
             printing duplicate lines. *)
          let t0 = Unix.gettimeofday () in
          let last = Atomic.make t0 in
          Some
            (fun ~runs ~violated ->
              let now = Unix.gettimeofday () in
              let prev = Atomic.get last in
              if now -. prev >= 1.0 && Atomic.compare_and_set last prev now
              then
                Printf.eprintf "explore: %d runs, %d violating, %.0f runs/s\n%!"
                  runs violated
                  (float_of_int runs /. (now -. t0)))
        end
        else None
      in
      let finish (first : (Explore.mode * Explore.run_result) option) =
        match first with
        | None ->
            Format.printf "invariants     : all held@.";
            print_metrics registry;
            check_expected_races (`Ok ())
        | Some (_, r) ->
            print_violations r;
            let decisions =
              if no_minimize then Token.trim_trailing_zeros r.Explore.decisions
              else Explore.minimize ?metrics:registry spec r.Explore.decisions
            in
            let token = Explore.token_of spec decisions in
            Format.printf "repro          : %s@." (Token.to_string token);
            (* Re-execute the (minimized) violating run once, with a
               flight recorder (and a timeline sink when requested) on
               its replay arena: explanation text/JSON and the exported
               trace all describe the same deterministic run. *)
            explain_token ~explain ~race_report ~trace_out_violation token;
            print_metrics registry;
            `Error (false, "invariant violated (see repro token)")
      in
      if dpor then (
        (* guarded above: dpor implies depth is set and jobs = 1 *)
        let depth = Option.get depth in
        match
          Dsm_explore.Dpor.explore ?metrics:registry spec ~depth ~max_runs:runs
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | exception Sys_error msg -> `Error (false, msg)
        | st ->
            let explored = st.Dsm_explore.Dpor.runs in
            let pruned = st.Dsm_explore.Dpor.pruned in
            let total = explored + pruned in
            Format.printf
              "schedules      : %d explored, %d pruned (%.1f%% of %d \
               candidates), %d violating@."
              explored pruned
              (if total = 0 then 0.0
               else 100.0 *. float_of_int pruned /. float_of_int total)
              total st.Dsm_explore.Dpor.violated;
            finish st.Dsm_explore.Dpor.first)
      else
        (* Parallel.* with a size-1 pool delegates to the sequential
           explorer, and for jobs > 1 its merge is bit-identical to it —
           so one call site covers every --jobs value. *)
        match
          match depth with
          | Some depth ->
              Dsm_explore.Parallel.explore_exhaustive ~jobs ?metrics:registry
                spec ~depth ~max_runs:runs
          | None ->
              Dsm_explore.Parallel.explore_random ~jobs ~chunk
                ?metrics:registry ?progress spec ~runs
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | exception Sys_error msg -> `Error (false, msg)
        | stats ->
            Format.printf "schedules      : %d explored, %d violating@."
              stats.Explore.runs stats.Explore.violated;
            finish stats.Explore.first))

let explore_cmd =
  let doc = "Explore schedules and injected faults, checking protocol invariants." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a scenario under many scheduler interleavings (randomized \
         walks by default, bounded-exhaustive with $(b,--depth)), \
         optionally under an injected fault plan, and checks protocol \
         invariants after every run: completion, operation/lock \
         quiescence, memory coherence, detector clock monotonicity, and \
         per-schedule determinism.";
      `P
        "On a violation it prints a compact repro token; $(b,--replay) \
         re-executes a token deterministically.";
      `P
        (Printf.sprintf "Scenarios: %s."
           (String.concat ", " Dsm_explore.Scenario.known));
    ]
  in
  let scenario =
    Arg.(
      value & pos 0 string "getput"
      & info [] ~docv:"SCENARIO"
          ~doc:"getput, prog:FILE.dsm, or workload:NAME.")
  in
  let n =
    Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc:"Process count.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Engine seed.") in
  let runs =
    Arg.(
      value & opt int 100
      & info [ "runs" ] ~doc:"Schedules to explore (cap, in --depth mode).")
  in
  let depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Bounded-exhaustive mode: enumerate all deviations within the \
             first $(docv) choice points instead of random walks.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains to explore with. Findings are bit-identical \
             for every $(docv) — parallelism only changes wall-clock \
             time.")
  in
  let latency =
    Arg.(
      value & opt string "infiniband"
      & info [ "latency" ] ~docv:"MODEL"
          ~doc:
            "Fabric latency model: infiniband, ethernet, constant:C, \
             linear:BASE:PER_WORD, logp:L:O:G, or jitter:MEAN:MODEL \
             (microseconds). constant:C makes deliveries tie, which \
             makes --depth trees branch — the regime --dpor prunes.")
  in
  let chunk =
    Arg.(
      value & opt int 64
      & info [ "chunk" ] ~docv:"RUNS"
          ~doc:
            "Walk indices claimed per worker fetch-and-add in random-walk \
             mode (ignored by --depth mode). Findings are bit-identical \
             for every $(docv); larger chunks only reduce shared-counter \
             traffic. Must be positive.")
  in
  let dpor =
    Arg.(
      value & flag
      & info [ "dpor" ]
          ~doc:
            "Sleep-set partial-order reduction for $(b,--depth) mode: \
             prune schedules that only reorder provably-independent \
             events of an already-explored schedule. Every pruned \
             schedule has an explored representative with the same \
             violations and races. Requires $(b,--depth); single-domain; \
             pruning disarms itself under $(b,--faults) (fault draws \
             break trace equivalence) and the search then runs \
             unpruned.")
  in
  let clock_wire =
    Arg.(
      value
      & opt wire_conv Config.Delta_wire
      & info [ "clock-wire" ] ~docv:"ENC"
          ~doc:
            "Clock piggyback wire encoding for scenarios that attach the \
             detector: dense, sparse, or delta. Accounting-only — \
             schedules, fingerprints and repro tokens are bit-identical \
             for every choice.")
  in
  let model =
    Arg.(
      value
      & opt (some model_conv) None
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Memory-model backend: nic_atomic (the paper's, default), \
             relaxed, eventual, or seq_consistent. Semantic — schedules, \
             fingerprints and race verdicts change with it, so repro \
             tokens carry the model and $(b,--replay) refuses a token \
             minted under a different $(b,--model) unless $(b,--force) \
             is given.")
  in
  let diff_models =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff-models" ] ~docv:"A,B"
          ~doc:
            "Differential mode: explore schedules under backend $(i,A) \
             and replay each explored schedule's decision list under \
             $(i,B), reporting the first schedule whose race verdicts \
             differ — with a replay token per model and the sync edges \
             the weaker model is missing. Exits nonzero on a \
             model-dependent verdict, like an invariant violation.")
  in
  let force =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "With $(b,--replay) and $(b,--model): replay the token's \
             decision prefix under the given model even though the token \
             was minted under a different one. The run is a valid run of \
             the new model, but not the run the token describes.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Fault plan, e.g. 'drop=0.2,dup=0.1' or '0>1:reorder=0.5' \
             (see the DESIGN notes for the grammar).")
  in
  let reliable =
    Arg.(
      value & flag
      & info [ "reliable" ]
          ~doc:"Enable the retry/ack transport so faults are survivable.")
  in
  let bug =
    Arg.(
      value & flag
      & info [ "bug" ]
          ~doc:
            "Plant the Skip_get_dst_lock protocol bug (for exercising the \
             explorer itself).")
  in
  let max_events =
    Arg.(
      value & opt int 200_000
      & info [ "max-events" ] ~doc:"Per-run event budget.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"TOKEN"
          ~doc:"Re-execute a repro token deterministically.")
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:"Skip schedule-prefix minimization of the repro token.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the metrics-registry snapshot after the exploration \
             (merged across worker domains with --jobs > 1).")
  in
  let expect_races =
    Arg.(
      value
      & opt (some bool) None
      & info [ "expect-races" ] ~docv:"BOOL"
          ~doc:
            "Assert the exploration-wide race count after a clean \
             search: $(b,true) fails unless some schedule signalled a \
             race, $(b,false) fails if any did. Collects metrics \
             internally even without $(b,--metrics).")
  in
  let trace_out_violation =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out-violation" ] ~docv:"FILE"
          ~doc:
            "On a violation, replay the (minimized) repro token and write \
             its Chrome/Perfetto trace-event JSON timeline to $(docv).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "On a violation (or with $(b,--replay)), re-execute the repro \
             token with a flight recorder attached and print a causal \
             explanation of every race signal: both conflicting accesses \
             with their clocks, the incomparable clock components, and \
             the most recent sync edge between the two processes. Runs \
             with a violation but no race signal fall back to the \
             detector's per-granule provenance (e.g. the planted \
             RMW-atomicity bug).")
  in
  let race_report =
    Arg.(
      value
      & opt (some string) None
      & info [ "race-report" ] ~docv:"FILE"
          ~doc:
            "Write the explanations of the (minimized) violating run as a \
             JSON document to $(docv). Implies the same deterministic \
             token replay as $(b,--explain).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")
  in
  Cmd.v (Cmd.info "explore" ~doc ~man)
    Term.(
      ret
        (const run_explore $ scenario $ n $ seed $ runs $ depth $ jobs
       $ chunk $ dpor $ latency $ clock_wire $ model $ diff_models $ force
       $ faults $ reliable $ bug $ max_events $ replay $ no_minimize
       $ metrics $ expect_races $ trace_out_violation $ explain
       $ race_report $ verbose))

(* ---------- scenario ---------- *)

let scenario_cmd =
  let doc = "Replay one of the paper's figures (fig1..fig5)." in
  let figure =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIGURE" ~doc:"fig1, fig2, fig3, fig4, or fig5.")
  in
  let run figure =
    let experiment_of = function
      | "fig1" -> Some "E1"
      | "fig2" -> Some "E2"
      | "fig3" -> Some "E3"
      | "fig4" -> Some "E4"
      | "fig5" | "fig5a" | "fig5b" | "fig5c" -> Some "E5"
      | _ -> None
    in
    match experiment_of (String.lowercase_ascii figure) with
    | None -> `Error (false, Printf.sprintf "unknown figure %S" figure)
    | Some id -> (
        match
          Dsm_experiments.Registry.run_only Format.std_formatter id
        with
        | Ok () -> `Ok ()
        | Error msg -> `Error (false, msg))
  in
  Cmd.v (Cmd.info "scenario" ~doc) Term.(ret (const run $ figure))

let main =
  let doc =
    "Coherent distributed memory with race-condition detection (Butelle & \
     Coti, IPPS 2011)"
  in
  Cmd.group
    (Cmd.info "dsmcheck" ~version:"1.0.0" ~doc)
    [
      list_cmd;
      experiment_cmd;
      scenario_cmd;
      workload_cmd;
      scale_cmd;
      run_cmd;
      explore_cmd;
    ]

let () = exit (Cmd.eval main)
