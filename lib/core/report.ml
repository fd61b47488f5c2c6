type against = General_clock | Write_clock

type prior_access = {
  p_pid : int;
  p_kind : Dsm_trace.Event.kind;
  p_time : float;
  p_op : int;
  p_event_id : int option;
  p_clock : Dsm_clocks.Vector_clock.t;
}

type race = {
  event_id : int option;
  time : float;
  accessor : int;
  kind : Dsm_trace.Event.kind;
  granule : Dsm_memory.Addr.region;
  accessor_clock : Dsm_clocks.Vector_clock.t;
  datum_clock : Dsm_clocks.Vector_clock.t;
  against : against;
  prior : prior_access option;
}

type t = {
  mutable races : race list;
  mutable suppressed : race list;
  mutable suppressions : Dsm_memory.Addr.region list;
  mutable count : int;
  verbose : bool;
}

let src = Logs.Src.create "dsmcheck.race" ~doc:"Race condition signals"

module Log = (val Logs.src_log src : Logs.LOG)

let create ?(verbose = false) () =
  { races = []; suppressed = []; suppressions = []; count = 0; verbose }

let against_name = function
  | General_clock -> "general clock"
  | Write_clock -> "write clock"

let pp_race ppf r =
  Format.fprintf ppf
    "RACE at t=%.2f: P%d %s on %a — accessor clock %a incomparable with %s %a"
    r.time r.accessor
    (Dsm_trace.Event.kind_name r.kind)
    Dsm_memory.Addr.pp_region r.granule Dsm_clocks.Vector_clock.pp
    r.accessor_clock (against_name r.against) Dsm_clocks.Vector_clock.pp
    r.datum_clock

let signal t r =
  if List.exists (Dsm_memory.Addr.overlap r.granule) t.suppressions then
    t.suppressed <- r :: t.suppressed
  else begin
    t.races <- r :: t.races;
    t.count <- t.count + 1;
    if t.verbose then Log.warn (fun m -> m "%a" pp_race r)
  end

(* Suppressing a region also reclassifies signals that arrived *before*
   the suppression, so [count]/[races]/[grouped] agree no matter when
   the acknowledgment happened. Both lists are newest-first. *)
let suppress t region =
  t.suppressions <- region :: t.suppressions;
  let now_suppressed, kept =
    List.partition
      (fun r -> Dsm_memory.Addr.overlap r.granule region)
      t.races
  in
  t.races <- kept;
  t.count <- t.count - List.length now_suppressed;
  t.suppressed <- now_suppressed @ t.suppressed

let suppressed t = List.rev t.suppressed

let count t = t.count

let races t = List.rev t.races

let flagged_event_ids t =
  let set = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r.event_id with Some id -> Hashtbl.replace set id () | None -> ())
    t.races;
  set

let clear t =
  t.races <- [];
  t.suppressed <- [];
  t.count <- 0

type group = {
  g_granule : Dsm_memory.Addr.region;
  g_pids : int list;
  g_count : int;
  g_first_time : float;
  g_kinds : Dsm_trace.Event.kind list;
}

let grouped t =
  let table : (int * int * int, group) Hashtbl.t = Hashtbl.create 16 in
  let key (r : race) =
    ( r.granule.Dsm_memory.Addr.base.pid,
      r.granule.Dsm_memory.Addr.base.offset,
      r.granule.Dsm_memory.Addr.len )
  in
  List.iter
    (fun r ->
      let k = key r in
      match Hashtbl.find_opt table k with
      | None ->
          Hashtbl.add table k
            {
              g_granule = r.granule;
              g_pids = [ r.accessor ];
              g_count = 1;
              g_first_time = r.time;
              g_kinds = [ r.kind ];
            }
      | Some g ->
          Hashtbl.replace table k
            {
              g with
              g_pids =
                (if List.mem r.accessor g.g_pids then g.g_pids
                 else g.g_pids @ [ r.accessor ]);
              g_count = g.g_count + 1;
              g_kinds =
                (if List.mem r.kind g.g_kinds then g.g_kinds
                 else g.g_kinds @ [ r.kind ]);
            })
    (races t);
  Hashtbl.fold (fun _ g acc -> g :: acc) table []
  |> List.map (fun g -> { g with g_pids = List.sort compare g.g_pids })
  |> List.sort (fun a b -> compare a.g_first_time b.g_first_time)

let pp_group ppf g =
  Format.fprintf ppf "%a: %d signal(s), %s by %s, first at t=%.2f"
    Dsm_memory.Addr.pp_region g.g_granule g.g_count
    (String.concat "/" (List.map Dsm_trace.Event.kind_name g.g_kinds))
    (String.concat ", "
       (List.map (fun p -> Printf.sprintf "P%d" p) g.g_pids))
    g.g_first_time

let pp_grouped ppf t =
  match grouped t with
  | [] -> Format.fprintf ppf "no race condition signaled"
  | groups ->
      Format.fprintf ppf "%d raced shared datum(s):@," (List.length groups);
      Format.pp_print_list pp_group ppf groups

(* [to_csv] is on the explorer's per-schedule path (every run and its
   determinism replay are fingerprinted), so it writes straight into one
   buffer: no [Format], no per-line [Printf], a digit writer for ints
   and clock components. Its bytes must stay those of the [Printf] rows
   and [Vector_clock.to_string] clocks described in report.mli:
   fingerprints and replay tokens hash them (test_fuzz's [Csv_oracle]
   holds the reference). *)

(* The C primitive behind [Printf]'s [%.6f]. *)
external format_float : string -> float -> string = "caml_format_float"

let rec add_digits buf x =
  if x >= 10 then add_digits buf (x / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (x mod 10)))

let add_int buf x =
  if x >= 0 then add_digits buf x else Buffer.add_string buf (string_of_int x)

(* [<c0,c1,...>] as [Vector_clock.to_string] prints it, walking only the
   live components and filling the zeros between them. *)
let add_clock buf c =
  Buffer.add_char buf '<';
  let next = ref 0 in
  let zeros_to p =
    for i = !next to p - 1 do
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '0'
    done
  in
  Dsm_clocks.Vector_clock.iter_active c (fun p x ->
      zeros_to p;
      if p > 0 then Buffer.add_char buf ',';
      add_int buf x;
      next := p + 1);
  zeros_to (Dsm_clocks.Vector_clock.dim c);
  Buffer.add_char buf '>'

let add_field buf s =
  Buffer.add_string buf s;
  Buffer.add_char buf ','

let add_int_field buf x =
  add_int buf x;
  Buffer.add_char buf ','

let add_row buf r =
  add_field buf (format_float "%.6f" r.time);
  add_int_field buf r.accessor;
  add_field buf (Dsm_trace.Event.kind_name r.kind);
  add_int_field buf r.granule.Dsm_memory.Addr.base.pid;
  add_int_field buf r.granule.Dsm_memory.Addr.base.offset;
  add_int_field buf r.granule.Dsm_memory.Addr.len;
  Buffer.add_string buf
    (match r.against with General_clock -> "general" | Write_clock -> "write");
  Buffer.add_string buf ",\"";
  add_clock buf r.accessor_clock;
  Buffer.add_string buf "\",\"";
  add_clock buf r.datum_clock;
  Buffer.add_string buf "\",";
  (match r.event_id with Some id -> add_int buf id | None -> ());
  Buffer.add_char buf '\n'

(* Room for the whole CSV up front, so the buffer rarely regrows: ~40
   bytes of fixed columns per row plus two clocks of two bytes or more
   per component, with some slack for multi-digit ticks. *)
let csv_size_hint t =
  match t.races with
  | [] -> 128
  | r :: _ ->
      let dim = Dsm_clocks.Vector_clock.dim r.accessor_clock in
      128 + (t.count * (64 + (5 * dim)))

let to_csv t =
  let buf = Buffer.create (csv_size_hint t) in
  Buffer.add_string buf
    "time,accessor,kind,node,offset,len,against,accessor_clock,datum_clock,event_id\n";
  List.iter (add_row buf) (races t);
  Buffer.contents buf

let fingerprint t =
  Digest.to_hex (Digest.string (to_csv t))

let pp_summary ppf t =
  if t.count = 0 then Format.fprintf ppf "no race condition signaled"
  else
    Format.fprintf ppf "%d race condition signal(s):@,%a" t.count
      (Format.pp_print_list pp_race)
      (races t)
