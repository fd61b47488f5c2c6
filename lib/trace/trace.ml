open Dsm_clocks

type t = {
  n : int;
  events : Event.t array;
  preds : int list array;
  sync : int list array; (* the preds that also order the event itself *)
  clocks : int array array; (* HB vector clock per event *)
  own_seq : int array; (* event's own component within its process *)
  prog_pred : int array; (* program-order predecessor id, or -1 *)
}

let build ~n ~events ~preds ?(sync = Array.make (Array.length preds) []) ()
    =
  if n < 1 then invalid_arg "Trace.build: n must be positive";
  let m = Array.length events in
  if Array.length preds <> m || Array.length sync <> m then
    invalid_arg "Trace.build: preds length differs from events";
  Array.iteri
    (fun i e ->
      if Event.id e <> i then invalid_arg "Trace.build: ids must be dense";
      let p = Event.pid e in
      if p < 0 || p >= n then invalid_arg "Trace.build: pid out of range";
      List.iter
        (fun j ->
          if j < 0 || j >= i then
            invalid_arg "Trace.build: edge does not point backwards")
        (sync.(i) @ preds.(i)))
    events;
  let clocks = Array.make m [||] in
  let own_seq = Array.make m 0 in
  let prog_pred = Array.make m (-1) in
  let seq = Array.make n 0 in
  let last_of_pid = Array.make n (-1) in
  for i = 0 to m - 1 do
    let p = Event.pid events.(i) in
    let vc = Array.make n 0 in
    let absorb j =
      let cj = clocks.(j) in
      for k = 0 to n - 1 do
        if cj.(k) > vc.(k) then vc.(k) <- cj.(k)
      done
    in
    if last_of_pid.(p) >= 0 then absorb last_of_pid.(p);
    prog_pred.(i) <- last_of_pid.(p);
    List.iter absorb preds.(i);
    List.iter absorb sync.(i);
    seq.(p) <- seq.(p) + 1;
    vc.(p) <- seq.(p);
    clocks.(i) <- vc;
    own_seq.(i) <- seq.(p);
    last_of_pid.(p) <- i
  done;
  { n; events; preds; sync; clocks; own_seq; prog_pred }

let n t = t.n

let length t = Array.length t.events

let events t = t.events

let accesses t =
  Array.to_list t.events |> List.filter_map Event.access_opt

let vector_clock t i =
  if i < 0 || i >= length t then invalid_arg "Trace.vector_clock";
  Vector_clock.of_array t.clocks.(i)

let happens_before t a b =
  if a < 0 || a >= length t || b < 0 || b >= length t then
    invalid_arg "Trace.happens_before";
  a <> b && t.clocks.(b).(Event.pid t.events.(a)) >= t.own_seq.(a)

let concurrent t a b =
  a <> b && (not (happens_before t a b)) && not (happens_before t b a)

type race_pair = { first : Event.access; second : Event.access }

(* The pair cannot race iff [first] is in the causal past of [second]'s
   program predecessor or of one of its synchronization predecessors —
   i.e. of [second]'s clock before it absorbs its own incoming reads-from
   edges. Observation is not synchronization. *)
let covers t ~first q = q >= 0 && (q = first || happens_before t first q)

let race_ordered t ~first ~second =
  if first >= second then invalid_arg "Trace.race_ordered: first >= second";
  covers t ~first t.prog_pred.(second)
  || List.exists (covers t ~first) t.sync.(second)

let races t =
  (* Bucket accesses by the node owning the target, then test pairs within
     a bucket: conflict is cheap, the HB check is O(1). *)
  let buckets : (int, Event.access list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a : Event.access) ->
      let key = a.target.base.pid in
      match Hashtbl.find_opt buckets key with
      | Some l -> l := a :: !l
      | None -> Hashtbl.add buckets key (ref [ a ]))
    (accesses t);
  let out = ref [] in
  Hashtbl.iter
    (fun _ l ->
      let arr = Array.of_list (List.rev !l) in
      let m = Array.length arr in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          let a = arr.(i) and b = arr.(j) in
          if Event.conflict a b then begin
            let first, second = if a.id < b.id then (a, b) else (b, a) in
            if not (race_ordered t ~first:first.id ~second:second.id) then
              out := { first; second } :: !out
          end
        done
      done)
    buckets;
  List.sort
    (fun x y ->
      match compare x.second.id y.second.id with
      | 0 -> compare x.first.id y.first.id
      | c -> c)
    !out

(* Shortest predecessor chain from [src] to [dst] over program order and
   the extra edges, by BFS backwards from [dst]. *)
let hb_path t ~src ~dst =
  if not (happens_before t src dst) then None
  else begin
    let back = Array.make (length t) (-2) in
    (* -2 = unvisited, -1 = origin *)
    let q = Queue.create () in
    back.(dst) <- -1;
    Queue.add dst q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let e = Queue.pop q in
      if e = src then found := true
      else begin
        let preds =
          (if t.prog_pred.(e) >= 0 then [ t.prog_pred.(e) ] else [])
          @ t.sync.(e) @ t.preds.(e)
        in
        List.iter
          (fun p ->
            if back.(p) = -2 then begin
              back.(p) <- e;
              Queue.add p q
            end)
          preds
      end
    done;
    if not !found then None
    else begin
      let rec walk e acc = if e = -1 then acc else walk back.(e) (e :: acc) in
      Some (List.rev (walk src []))
    end
  end

let explain t ~first ~second =
  if first >= second then invalid_arg "Trace.explain: first >= second";
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let render e = Format.asprintf "%a" Event.pp t.events.(e) in
  if race_ordered t ~first ~second then begin
    line "ordered: %s" (render first);
    (* The chain runs to [second]'s program predecessor or the
       synchronization predecessor that orders it — the clock the
       algorithm compares (observation is not synchronization). *)
    let q =
      if covers t ~first t.prog_pred.(second) then t.prog_pred.(second)
      else List.find (covers t ~first) t.sync.(second)
    in
    (match hb_path t ~src:first ~dst:q with
    | Some path ->
        List.iter (fun e -> if e <> first then line "  -> %s" (render e)) path
    | None -> ());
    line "  -> %s" (render second)
  end
  else begin
    line "concurrent: no happens-before path reaches the second access's";
    line "program predecessor — by Lemma 1 the pair races.";
    line "  first : %s" (render first);
    line "  second: %s" (render second)
  end;
  Buffer.contents buf

let racy_access_ids t =
  let set = Hashtbl.create 16 in
  List.iter
    (fun { first; second } ->
      Hashtbl.replace set first.id ();
      Hashtbl.replace set second.id ())
    (races t);
  set

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph trace {\n  rankdir=TB;\n";
  Array.iter
    (fun e ->
      let shape =
        match e with
        | Event.Access { kind = Event.Write; _ } -> "box"
        | Event.Access _ -> "ellipse"
        | Event.Sync _ -> "diamond"
      in
      Buffer.add_string buf
        (Printf.sprintf "  e%d [shape=%s,label=\"%s\"];\n" (Event.id e) shape
           (Format.asprintf "%a" Event.pp e)))
    t.events;
  let last_of_pid = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      let i = Event.id e and p = Event.pid e in
      (match Hashtbl.find_opt last_of_pid p with
      | Some j ->
          Buffer.add_string buf (Printf.sprintf "  e%d -> e%d;\n" j i)
      | None -> ());
      Hashtbl.replace last_of_pid p i;
      List.iter
        (fun j ->
          Buffer.add_string buf
            (Printf.sprintf "  e%d -> e%d [style=dashed];\n" j i))
        t.preds.(i);
      List.iter
        (fun j ->
          Buffer.add_string buf
            (Printf.sprintf "  e%d -> e%d [style=bold];\n" j i))
        t.sync.(i))
    t.events;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_summary ppf t =
  let accs = accesses t in
  let writes = List.length (List.filter (fun a -> a.Event.kind = Event.Write) accs) in
  let rs = races t in
  Format.fprintf ppf
    "@[<v>trace: %d events (%d accesses, %d writes) over %d processes;@ %d ground-truth race pair(s)@]"
    (length t) (List.length accs) writes t.n (List.length rs)
