open Dsm_memory

type reads_from = All_writers | Last_writer

type t = {
  n : int;
  reads_from : reads_from;
  mutable events : Event.t list; (* newest first *)
  mutable preds : int list list; (* parallel to events *)
  mutable sync : int list list; (* parallel to events *)
  mutable count : int;
  last : int array; (* each process's latest event id, or -1 *)
  (* writer event ids per (owner pid, space flag, word offset): a single
     id under Last_writer, the full history under All_writers *)
  writers : (int * bool * int, int list) Hashtbl.t;
  (* RMW release points per word: events whose clock the online
     detector merged into the word's S clock *)
  releases : (int * bool * int, int list) Hashtbl.t;
  last_release : (string, int) Hashtbl.t;
  barrier_enters : (int, int list) Hashtbl.t;
}

let create ?(reads_from = All_writers) ~n () =
  if n < 1 then invalid_arg "Recorder.create: n must be positive";
  {
    n;
    reads_from;
    events = [];
    preds = [];
    sync = [];
    count = 0;
    last = Array.make n (-1);
    writers = Hashtbl.create 256;
    releases = Hashtbl.create 64;
    last_release = Hashtbl.create 16;
    barrier_enters = Hashtbl.create 16;
  }

let push ?(sync = []) t event preds =
  t.events <- event :: t.events;
  t.preds <- preds :: t.preds;
  t.sync <- sync :: t.sync;
  t.last.(Event.pid event) <- t.count;
  t.count <- t.count + 1

let word_keys (r : Addr.region) =
  let is_pub = r.base.space = Addr.Public in
  List.init r.len (fun i -> (r.base.pid, is_pub, r.base.offset + i))

let dedup_sorted l = List.sort_uniq compare l

let ids_of tbl keys =
  dedup_sorted
    (List.concat_map
       (fun k -> match Hashtbl.find_opt tbl k with None -> [] | Some ids -> ids)
       keys)

let add_id tbl k id =
  Hashtbl.replace tbl k
    (id :: (match Hashtbl.find_opt tbl k with None -> [] | Some ids -> ids))

let access t ~time ~pid ~kind ~target ?(label = "") () =
  let id = t.count in
  let keys = word_keys target in
  (* Reads — and atomic updates, which read before they modify — are
     ordered after the writes whose effects they observed, and absorb
     the words' RMW releases as a reader absorbs the S clock. An atomic
     update also {e synchronizes} with those releases: the NIC
     serialized it after them, so they order the update itself. *)
  let preds, sync =
    match kind with
    | Event.Read ->
        (dedup_sorted (ids_of t.writers keys @ ids_of t.releases keys), [])
    | Event.Atomic_update ->
        let sync = ids_of t.releases keys in
        let observed = ids_of t.writers keys in
        (List.filter (fun j -> not (List.mem j sync)) observed, sync)
    | Event.Write -> ([], [])
  in
  push t ~sync (Event.Access { id; time; pid; kind; target; label }) preds;
  if kind = Event.Atomic_update then
    List.iter (fun k -> add_id t.releases k id) keys;
  if kind = Event.Write || kind = Event.Atomic_update then
    List.iter
      (fun k ->
        let ids =
          match (t.reads_from, Hashtbl.find_opt t.writers k) with
          | Last_writer, _ | All_writers, None -> [ id ]
          | All_writers, Some ids -> id :: ids
        in
        Hashtbl.replace t.writers k ids)
      keys;
  id

let rmw_release t ~pid ~target =
  let j = t.last.(pid) in
  if j >= 0 then List.iter (fun k -> add_id t.releases k j) (word_keys target)

let lock_acquire t ~time ~pid ~lock =
  let id = t.count in
  let preds =
    match Hashtbl.find_opt t.last_release lock with
    | Some j -> [ j ]
    | None -> []
  in
  push t (Event.Sync (Event.Lock_acquire { id; time; pid; lock })) preds;
  id

let lock_release t ~time ~pid ~lock =
  let id = t.count in
  push t (Event.Sync (Event.Lock_release { id; time; pid; lock })) [];
  Hashtbl.replace t.last_release lock id;
  id

let barrier_enter t ~time ~pid ~generation =
  let id = t.count in
  push t (Event.Sync (Event.Barrier_enter { id; time; pid; generation })) [];
  let sofar =
    match Hashtbl.find_opt t.barrier_enters generation with
    | Some l -> l
    | None -> []
  in
  Hashtbl.replace t.barrier_enters generation (id :: sofar);
  id

let barrier_exit t ~time ~pid ~generation =
  let id = t.count in
  let preds =
    match Hashtbl.find_opt t.barrier_enters generation with
    | Some l -> List.rev l
    | None -> []
  in
  push t (Event.Sync (Event.Barrier_exit { id; time; pid; generation })) preds;
  id

let size t = t.count

let finish t =
  let events = Array.of_list (List.rev t.events) in
  let preds = Array.of_list (List.rev t.preds) in
  let sync = Array.of_list (List.rev t.sync) in
  Trace.build ~n:t.n ~events ~preds ~sync ()
