(* Per-granule access history: a bounded ring of the most recent checked
   accesses (last writer + recent readers), so a race signal can name
   the *other* endpoint, not just the flagged one.

   Keyed exactly like the granule clocks: per node, by (offset, len) —
   one history per granule the detector checks. Observation-only state:
   it is consulted and updated on the detection path but never feeds
   back into clocks, verdicts or scheduling. *)

open Dsm_clocks

type entry = {
  pid : int;
  kind : Dsm_trace.Event.kind;
  time : float;
  op : int; (* detector checked-op ordinal *)
  event_id : int; (* trace event id, -1 when tracing is off *)
  clock : Vector_clock.t; (* accessor clock snapshot at check time *)
}

type ring = { slots : entry option array; mutable n : int }

type t = {
  depth : int;
  (* node -> Clock_store.pack_key (offset, len) -> ring; grown on the
     first access to a node *)
  mutable nodes : (int, ring) Hashtbl.t option array;
}

let create ~depth =
  if depth < 0 then invalid_arg "Provenance.create: negative depth";
  { depth; nodes = [||] }

let depth t = t.depth

let ring_of t ~node ~offset ~len =
  match if node < Array.length t.nodes then t.nodes.(node) else None with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl (Clock_store.pack_key ~offset ~len)

let note t ~node ~offset ~len entry =
  if t.depth > 0 then begin
    let key = Clock_store.pack_key ~offset ~len in
    if node >= Array.length t.nodes then begin
      let grown = Array.make (max (node + 1) (2 * Array.length t.nodes)) None in
      Array.blit t.nodes 0 grown 0 (Array.length t.nodes);
      t.nodes <- grown
    end;
    let tbl =
      match t.nodes.(node) with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 16 in
          t.nodes.(node) <- Some tbl;
          tbl
    in
    let ring =
      match Hashtbl.find_opt tbl key with
      | Some r -> r
      | None ->
          let r = { slots = Array.make t.depth None; n = 0 } in
          Hashtbl.add tbl key r;
          r
    in
    ring.slots.(ring.n mod t.depth) <- Some entry;
    ring.n <- ring.n + 1
  end

(* The [i]-th newest retained slot, [0 <= i < min n depth]. *)
let nth_newest ring i =
  ring.slots.((ring.n - 1 - i) mod Array.length ring.slots)

let live ring = min ring.n (Array.length ring.slots)

(* Newest first. *)
let entries_of ring =
  let acc = ref [] in
  for i = live ring - 1 downto 0 do
    match nth_newest ring i with Some e -> acc := e :: !acc | None -> ()
  done;
  !acc

let history t ~node ~offset ~len =
  match ring_of t ~node ~offset ~len with
  | None -> []
  | Some ring -> entries_of ring

let conflicts ~write entry =
  (* two reads never conflict; anything involving a write or RMW does *)
  write || entry.kind <> Dsm_trace.Event.Read

(* The most recent access by another process that conflicts with the
   flagged access and is concurrent with its clock — the race's other
   endpoint. Falls back to the most recent conflicting access by
   another process when no retained entry is concurrent (the real
   endpoint may have been evicted from the bounded ring). One
   newest-first walk over the ring, no intermediate list. *)
let find_prior t ~node ~offset ~len ~pid ~write ~clock =
  match ring_of t ~node ~offset ~len with
  | None -> None
  | Some ring ->
      let n = live ring in
      let rec scan i fallback =
        if i >= n then fallback
        else
          match nth_newest ring i with
          | Some e as slot when e.pid <> pid && conflicts ~write e ->
              if Vector_clock.concurrent clock e.clock then slot
              else
                scan (i + 1) (match fallback with None -> slot | f -> f)
          | _ -> scan (i + 1) fallback
      in
      scan 0 None

let iter_granules t ~f =
  Array.iteri
    (fun node -> function
      | None -> ()
      | Some tbl ->
          Hashtbl.fold (fun k ring acc -> (k, ring) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.iter (fun (key, ring) ->
                 let offset, len = Clock_store.unpack_key key in
                 f ~node ~offset ~len (entries_of ring)))
    t.nodes
