open Dsm_memory
open Dsm_clocks
module Machine = Dsm_rdma.Machine
module Event = Dsm_trace.Event
module Recorder = Dsm_trace.Recorder

(* The per-access path is allocation-free: granule walks are iterated
   (no lists), store lookups hash a packed-int key, clock comparisons
   and merges run on adaptive epoch/vector clocks in place, and every
   intermediate clock value lives in a per-process scratch buffer owned
   by the detector. Scratch is keyed by accessor pid because the
   explicit transport blocks inside an access (control round trip) and
   the simulator may interleave another process's access meanwhile; a
   single process's accesses never nest, so per-pid buffers are safe. *)

type t = {
  machine : Machine.t;
  config : Config.t;
  mh : Dsm_rdma.Model.hooks;
      (* the memory model's detector hooks, unpacked at creation so the
         per-access path reads plain booleans *)
  probe : Dsm_obs.Probe.t; (* the owning engine's telemetry bus *)
  report : Report.t;
  dim : int; (* vector dimension: n, or 1 in the Lamport ablation *)
  procs : Vector_clock.t array;
  stores : Clock_store.t array;
  recorder : Recorder.t option;
  (* clock per user-level lock, keyed by the locked region's full
     identity (pid, space, offset, len); only consulted when
     [lock_aware_clocks] is set *)
  lock_clocks : (Addr.region, Vector_clock.t) Hashtbl.t;
  (* per-pid scratch clocks for the hot path *)
  scratch_absorb : Vector_clock.t array;
  scratch_datum : Vector_clock.t array;
  scratch_fv : Vector_clock.t array;
  scratch_fw : Vector_clock.t array;
  scratch_fs : Vector_clock.t array;
  scratch_barrier : Vector_clock.t;
  (* bounded per-granule access history so races can name both
     endpoints; observation-only (never feeds back into detection) *)
  provenance : Provenance.t;
  mutable checked_ops : int;
  mutable meta_messages : int;
  mutable clock_words_shipped : int;
}

let vget_tag = "dsm.vget"

let vput_tag = "dsm.vput"

(* Extra [vput] class code: merge the payload into S only — the early
   release an RMW performs before its fabric round trip. *)
let s_release_code = 4

(* Access classes: the paper's reads and writes, plus the one-sided
   read-modify-write extension. An RMW is atomically both a read and a
   write against the granule's V/W clocks — it read-marks V always and
   write-marks W when it actually wrote (a failed compare-and-swap does
   not) — and additionally releases the accessor's clock into the
   granule's S clock. S is sound as a release point because the target
   NIC applies every RMW on a granule under the same region lock: RMWs
   on one granule are genuinely serialized, so a later RMW that acquires
   S really does happen after every clock merged into it. Plain accesses
   never touch S, so they cannot borrow synchronization they do not
   have. *)
type access_class = Plain_read | Plain_write | Rmw of { wrote : bool }

let class_code = function
  | Plain_read -> 0
  | Plain_write -> 1
  | Rmw { wrote = true } -> 2
  | Rmw { wrote = false } -> 3

let class_of_code = function
  | 0 -> Plain_read
  | 1 -> Plain_write
  | 2 -> Rmw { wrote = true }
  | 3 -> Rmw { wrote = false }
  | c -> invalid_arg (Printf.sprintf "Detector: bad access class %d" c)

let merge_entry (mh : Dsm_rdma.Model.hooks) (e : Clock_store.entry) cls clock
    =
  match cls with
  | Plain_read -> Vector_clock.merge_into ~into:e.v clock
  | Plain_write ->
      Vector_clock.merge_into ~into:e.v clock;
      Vector_clock.merge_into ~into:e.w clock
  | Rmw { wrote } ->
      Vector_clock.merge_into ~into:e.v clock;
      if wrote then Vector_clock.merge_into ~into:e.w clock;
      if mh.rmw_acquires_order then Vector_clock.merge_into ~into:e.s clock

(* The offline trace mirrors S: the issuer's history at the point it is
   released into S becomes a release point for those words. *)
let record_rmw_release t ~pid ~target =
  match t.recorder with
  | None -> ()
  | Some rec_ -> Recorder.rmw_release rec_ ~pid ~target

let install_control_plane t =
  Machine.set_control_handler t.machine ~tag:vget_tag
    (fun ~node ~origin:_ words ->
      let e =
        Clock_store.entry_at t.stores.(node) ~offset:words.(0) ~len:words.(1)
      in
      let reply = Array.make (3 * t.dim) 0 in
      Vector_clock.store_words e.v reply ~off:0;
      Vector_clock.store_words e.w reply ~off:t.dim;
      Vector_clock.store_words e.s reply ~off:(2 * t.dim);
      Some reply);
  Machine.set_control_handler t.machine ~tag:vput_tag
    (fun ~node ~origin words ->
      let e =
        Clock_store.entry_at t.stores.(node) ~offset:words.(0) ~len:words.(1)
      in
      (if words.(2) = s_release_code then begin
         if t.mh.rmw_acquires_order then begin
           Vector_clock.merge_words ~into:e.s words ~off:3;
           record_rmw_release t ~pid:origin
             ~target:
               (Addr.region ~pid:node ~space:Addr.Public ~offset:words.(0)
                  ~len:words.(1))
         end
       end
       else
         match class_of_code words.(2) with
         | Plain_read -> Vector_clock.merge_words ~into:e.v words ~off:3
         | Plain_write ->
             Vector_clock.merge_words ~into:e.v words ~off:3;
             Vector_clock.merge_words ~into:e.w words ~off:3
         | Rmw { wrote } ->
             Vector_clock.merge_words ~into:e.v words ~off:3;
             if wrote then Vector_clock.merge_words ~into:e.w words ~off:3;
             if t.mh.rmw_acquires_order then
               Vector_clock.merge_words ~into:e.s words ~off:3);
      None)

let create machine ?config ?(verbose = false) () =
  (* An omitted config adopts the machine's memory model — the common
     "default config, whatever the machine runs" construction; an
     explicit config must agree with the machine (checked below). *)
  let config =
    match config with
    | Some c -> c
    | None ->
        { Config.default with Config.memory_model = Machine.model machine }
  in
  let config = Config.validate config in
  if config.Config.memory_model <> Machine.model machine then
    invalid_arg
      (Printf.sprintf
         "Detector.create: config.memory_model is %s but the machine was \
          created under %s — the detector's happens-before edges must match \
          the machine's protocol"
         (Dsm_rdma.Model.name config.Config.memory_model)
         (Dsm_rdma.Model.name (Machine.model machine)));
  let n = Machine.n machine in
  let dim =
    match config.Config.clock_mode with
    | Config.Vector -> n
    | Config.Lamport_only -> 1
  in
  let rep = config.Config.clock_rep in
  let mk () = Clock_store.make_clock rep ~n:dim in
  let clock_array () = Array.init n (fun _ -> mk ()) in
  let t =
    {
      machine;
      config;
      mh = Dsm_rdma.Model.hooks config.Config.memory_model;
      probe = Dsm_sim.Engine.probe (Machine.sim machine);
      report = Report.create ~verbose ();
      dim;
      procs = clock_array ();
      stores =
        Array.init n (fun node ->
            Clock_store.create ~node ~clock_dim:dim
              ~granularity:config.Config.granularity ~rep
              ~shards:config.Config.store_shards ());
      lock_clocks = Hashtbl.create 16;
      scratch_absorb = clock_array ();
      scratch_datum = clock_array ();
      scratch_fv = clock_array ();
      scratch_fw = clock_array ();
      scratch_fs = clock_array ();
      scratch_barrier = mk ();
      recorder =
        (if config.Config.record_trace then
           let reads_from =
             match config.Config.trace_reads_from with
             | `All_writers -> Recorder.All_writers
             | `Last_writer -> Recorder.Last_writer
           in
           Some (Recorder.create ~reads_from ~n ())
         else None);
      provenance = Provenance.create ~depth:config.Config.provenance_depth;
      checked_ops = 0;
      meta_messages = 0;
      clock_words_shipped = 0;
    }
  in
  install_control_plane t;
  (* Inline/piggyback transports ship the accessor's clock on the data
     messages themselves: install the machine's clock source so every
     clock-carrying message carries a real piggyback, encoded per
     [clock_wire]. Accounting-only — the fabric still prices the nominal
     [extra_words] allowance (see [Machine.set_clock_source]). *)
  (match config.Config.transport with
  | Config.Inline | Config.Piggyback_txn ->
      let mode =
        match config.Config.clock_wire with
        | Config.Dense_wire -> Codec.Dense
        | Config.Sparse_wire -> Codec.Sparse
        | Config.Delta_wire -> Codec.Delta
      in
      Machine.set_clock_source machine ~mode (fun ~pid -> t.procs.(pid))
  | Config.Explicit_txn -> ());
  t

let machine t = t.machine

let config t = t.config

let report t = t.report

let register t (r : Addr.region) = Clock_store.register t.stores.(r.base.pid) r

let alloc_shared t ~pid ?name ~len () =
  let r = Machine.alloc_public t.machine ~pid ?name ~len () in
  register t r;
  r

(* The component this process ticks: its pid, or 0 when every process
   shares the single Lamport component. *)
let me t p =
  match t.config.Config.clock_mode with
  | Config.Vector -> Machine.pid p
  | Config.Lamport_only -> 0

let now t = Dsm_sim.Engine.now (Machine.sim t.machine)

let record_access t p ~kind ~target =
  match t.recorder with
  | None -> None
  | Some rec_ ->
      Some
        (Recorder.access rec_ ~time:(now t) ~pid:(Machine.pid p) ~kind ~target
           ())

let kind_of_class = function
  | Plain_read -> Event.Read
  | Plain_write -> Event.Write
  | Rmw _ -> Event.Atomic_update

let is_writing_class = function
  | Plain_write | Rmw { wrote = true } -> true
  | Plain_read | Rmw { wrote = false } -> false

(* Cold path: a race was found; materialize the granule region and the
   datum clock's snapshot for the report, and recover the race's other
   endpoint from the granule's provenance ring (the current access has
   not been noted yet, so the lookup cannot return the access itself).
   [snap] is the accessor clock's snapshot, shared with the provenance
   entry this access leaves; the prior entry's clock is itself an
   immutable snapshot, so the report shares it too. *)
let signal_race t ~pid ~cls ~snap ~event_id ~node ~offset ~len ~datum ~against
    =
  let kind = kind_of_class cls in
  if t.probe.on then
    Dsm_obs.Probe.emit t.probe
      (Race_signal
         {
           time = now t;
           pid;
           node;
           offset;
           len;
           kind = Event.kind_name kind;
           against =
             (match against with
             | Report.General_clock -> "general"
             | Report.Write_clock -> "write");
         });
  let prior =
    Option.map
      (fun (e : Provenance.entry) ->
        {
          Report.p_pid = e.pid;
          p_kind = e.kind;
          p_time = e.time;
          p_op = e.op;
          p_event_id = (if e.event_id >= 0 then Some e.event_id else None);
          p_clock = e.clock;
        })
      (Provenance.find_prior t.provenance ~node ~offset ~len ~pid
         ~write:(is_writing_class cls) ~clock:snap)
  in
  Report.signal t.report
    {
      Report.event_id;
      time = now t;
      accessor = pid;
      kind;
      granule = Addr.region ~pid:node ~space:Addr.Public ~offset ~len;
      accessor_clock = snap;
      (* [datum] is per-pid scratch: it must be captured *)
      datum_clock = Vector_clock.snapshot datum;
      against;
      prior;
    }

(* Check the accessor's clock [v0] against one granule's clocks
   [fv]/[fw]/[fs] and fold the clocks a read or RMW observes into
   [absorb]. What this access must be ordered against:
   - a plain read races with concurrent writes — W carries both plain
     write marks and RMW write marks (or any access in the
     no-write-clock ablation);
   - a plain write races with any concurrent access (V);
   - an RMW first acquires the granule's S clock — the releases of every
     RMW the target NIC serialized before it under the region lock —
     then performs its read half and write half as one check: a writing
     RMW checks V (W ⊆ V, so one comparison covers both halves); a
     read-only RMW (failed compare-and-swap) checks only W, like a plain
     read. The acquire is what keeps RMW/RMW pairs silent while leaving
     every RMW/plain pair visible: plain accesses never release into S,
     so their marks stay concurrent with the acquirer. *)
let check_granule t ~pid ~cls ~v0 ~event_id ~node ~offset ~len ~fv ~fw ~fs
    ~absorb =
  let datum = t.scratch_datum.(pid) in
  Vector_clock.reset datum;
  let against =
    match cls with
    | Plain_read ->
        if t.config.Config.use_write_clock then begin
          Vector_clock.merge_into ~into:datum fw;
          Report.Write_clock
        end
        else begin
          Vector_clock.merge_into ~into:datum fv;
          Report.General_clock
        end
    | Plain_write ->
        Vector_clock.merge_into ~into:datum fv;
        Report.General_clock
    | Rmw { wrote } ->
        if t.mh.rmw_acquires_order then Vector_clock.merge_into ~into:v0 fs;
        if wrote || not t.config.Config.use_write_clock then begin
          Vector_clock.merge_into ~into:datum fv;
          Report.General_clock
        end
        else begin
          Vector_clock.merge_into ~into:datum fw;
          Report.Write_clock
        end
  in
  let racy = Vector_clock.concurrent v0 datum in
  let noting = Provenance.depth t.provenance > 0 in
  (* one exact-size snapshot of [v0] serves the race report and the
     provenance entry alike; neither ever mutates it *)
  if racy || noting then begin
    let snap = Vector_clock.snapshot v0 in
    if racy then
      signal_race t ~pid ~cls ~snap ~event_id ~node ~offset ~len ~datum
        ~against;
    if noting then
      Provenance.note t.provenance ~node ~offset ~len
        {
          Provenance.pid;
          kind = kind_of_class cls;
          time = now t;
          op = t.checked_ops;
          event_id = (match event_id with Some id -> id | None -> -1);
          clock = snap;
        }
  end;
  match cls with
  | Plain_read | Rmw _ ->
      if t.mh.read_acquires_writes then begin
        Vector_clock.merge_into ~into:absorb fw;
        Vector_clock.merge_into ~into:absorb fs
      end;
      (* total store order: every access additionally acquires the
         granule's full history *)
      if t.mh.write_acquires_order then
        Vector_clock.merge_into ~into:absorb fv
  | Plain_write ->
      if t.mh.write_acquires_order then
        Vector_clock.merge_into ~into:absorb fv

(* Check one access (already ticked clock [v0]) against every granule it
   covers, signal incomparabilities, merge [v0] into the granules, and
   return (in the accessor's scratch buffer) the union of the clocks the
   accessor absorbs — the causal history of the writes/atomics a read or
   an atomic observed.

   Under Inline/Piggyback the store is manipulated directly (the
   exchange rides the data messages); under Explicit each remote granule
   costs a control round trip to read and an async control message to
   update — Algorithm 5 taken literally. *)
let check_access t p ~(region : Addr.region) ~cls ~v0 ~event_id =
  let node = region.base.pid in
  let store = t.stores.(node) in
  let pid = Machine.pid p in
  let absorb = t.scratch_absorb.(pid) in
  Vector_clock.reset absorb;
  let remote_explicit =
    match t.config.Config.transport with
    | Config.Explicit_txn -> node <> pid
    | Config.Inline | Config.Piggyback_txn -> false
  in
  Clock_store.iter_granules store region ~f:(fun ~offset ~len ->
      if remote_explicit then begin
        let words =
          Machine.control p ~target:node ~tag:vget_tag
            ~words:[| offset; len |]
        in
        t.meta_messages <- t.meta_messages + 2;
        t.clock_words_shipped <- t.clock_words_shipped + Array.length words;
        let fv = t.scratch_fv.(pid)
        and fw = t.scratch_fw.(pid)
        and fs = t.scratch_fs.(pid) in
        Vector_clock.load_words fv words ~off:0;
        Vector_clock.load_words fw words ~off:t.dim;
        Vector_clock.load_words fs words ~off:(2 * t.dim);
        check_granule t ~pid ~cls ~v0 ~event_id ~node ~offset ~len ~fv ~fw
          ~fs ~absorb;
        (* The async update message retains its payload until delivery,
           so this one allocation is irreducible here. *)
        let payload = Array.make (3 + t.dim) 0 in
        payload.(0) <- offset;
        payload.(1) <- len;
        payload.(2) <- class_code cls;
        Vector_clock.store_words v0 payload ~off:3;
        t.meta_messages <- t.meta_messages + 1;
        t.clock_words_shipped <- t.clock_words_shipped + t.dim;
        Machine.control_async p ~target:node ~tag:vput_tag ~words:payload
      end
      else begin
        let e = Clock_store.entry_at store ~offset ~len in
        check_granule t ~pid ~cls ~v0 ~event_id ~node ~offset ~len ~fv:e.v
          ~fw:e.w ~fs:e.s ~absorb;
        merge_entry t.mh e cls v0
      end);
  absorb

(* Piggybacked clock words on a data message: a dense-encoded vector. *)
let piggyback_words t =
  match t.config.Config.transport with
  | Config.Inline | Config.Piggyback_txn -> t.dim + 1
  | Config.Explicit_txn -> 0

(* Global (pid, space, offset) lock order, decided without building or
   sorting lists: [Private] ranks below [Public], matching the
   constructor order the seed's polymorphic compare used. *)
let space_rank = function Addr.Private -> 0 | Addr.Public -> 1

let region_before (a : Addr.region) (b : Addr.region) =
  a.base.pid < b.base.pid
  || (a.base.pid = b.base.pid
     && (space_rank a.base.space < space_rank b.base.space
        || (a.base.space = b.base.space && a.base.offset < b.base.offset)))

(* The shared body of Algorithms 1 and 2: tick, read-side check and
   absorption, write-side check, then the transfer provided by [transfer].
   [read_region] is checked when public; [write_region] always is. *)
let checked_op t p ~kind ~read_region ~write_region ~transfer =
  t.checked_ops <- t.checked_ops + 1;
  let v0 = t.procs.(Machine.pid p) in
  if t.probe.on then
    Dsm_obs.Probe.emit t.probe
      (Detector_check
         {
           time = now t;
           pid = Machine.pid p;
           kind;
           fast_path = Vector_clock.is_epoch v0;
         });
  let body () =
    Vector_clock.tick v0 ~me:(me t p);
    if Addr.is_public read_region then begin
      let event_id = record_access t p ~kind:Event.Read ~target:read_region in
      let absorbed =
        check_access t p ~region:read_region ~cls:Plain_read ~v0 ~event_id
      in
      (* The reader absorbs the causal history of the writes it observed:
         this is what orders Figure 5b's m3 after m1. *)
      Vector_clock.merge_into ~into:v0 absorbed;
      if t.probe.on then
        Dsm_obs.Probe.emit t.probe
          (Clock_merge { time = now t; pid = Machine.pid p })
    end;
    if Addr.is_public write_region then begin
      let event_id =
        record_access t p ~kind:Event.Write ~target:write_region
      in
      let absorbed =
        check_access t p ~region:write_region ~cls:Plain_write ~v0 ~event_id
      in
      (* under total store order the writer absorbs the granule's whole
         history; under every weaker model [absorbed] is empty here *)
      if t.mh.write_acquires_order then
        Vector_clock.merge_into ~into:v0 absorbed
    end;
    transfer ()
  in
  match t.config.Config.transport with
  | Config.Inline -> body ()
  | Config.Piggyback_txn | Config.Explicit_txn ->
      let first, second =
        if
          t.config.Config.ordered_locking
          && region_before write_region read_region
        then (write_region, read_region)
        else (read_region, write_region)
      in
      let tk1 = Machine.lock p first in
      let tk2 = Machine.lock p second in
      body ();
      Machine.unlock p tk2;
      Machine.unlock p tk1

let count_shipped t msgs =
  t.clock_words_shipped <- t.clock_words_shipped + (piggyback_words t * msgs)

let put t p ~src ~dst =
  let extra_words = piggyback_words t in
  let transfer () =
    match t.config.Config.transport with
    | Config.Inline ->
        count_shipped t 1;
        Machine.put p ~src ~dst ~extra_words ()
    | Config.Piggyback_txn | Config.Explicit_txn ->
        count_shipped t 1;
        Machine.raw_put p ~src ~dst ~extra_words ()
  in
  checked_op t p ~kind:"put" ~read_region:src ~write_region:dst ~transfer

let get t p ~src ~dst =
  let extra_words = piggyback_words t in
  let transfer () =
    match t.config.Config.transport with
    | Config.Inline ->
        count_shipped t 2;
        Machine.get p ~src ~dst ~extra_words ()
    | Config.Piggyback_txn | Config.Explicit_txn ->
        count_shipped t 2;
        Machine.raw_get p ~src ~dst ~extra_words ()
  in
  checked_op t p ~kind:"get" ~read_region:src ~write_region:dst ~transfer

(* ---------- batched checked operations ----------

   Group maximal runs of same-destination, address-ascending operations
   and move each run's data in one fabric message. Detection stays
   strictly per-operation — the same ticks, granule checks and merges as
   the unbatched path, so the race verdicts are identical — only the
   transport is coalesced: one message, one lock span, one piggybacked
   clock per run instead of one per op. *)

(* Detection body of one operation (tick, read-side check/absorb,
   write-side check) without locks or data transfer — the batched paths
   interleave several of these inside a single lock span. Mirrors
   [checked_op]'s body exactly. *)
let check_op t p ~kind ~read_region ~write_region =
  t.checked_ops <- t.checked_ops + 1;
  let v0 = t.procs.(Machine.pid p) in
  if t.probe.on then
    Dsm_obs.Probe.emit t.probe
      (Detector_check
         {
           time = now t;
           pid = Machine.pid p;
           kind;
           fast_path = Vector_clock.is_epoch v0;
         });
  Vector_clock.tick v0 ~me:(me t p);
  if Addr.is_public read_region then begin
    let event_id = record_access t p ~kind:Event.Read ~target:read_region in
    let absorbed =
      check_access t p ~region:read_region ~cls:Plain_read ~v0 ~event_id
    in
    Vector_clock.merge_into ~into:v0 absorbed;
    if t.probe.on then
      Dsm_obs.Probe.emit t.probe
        (Clock_merge { time = now t; pid = Machine.pid p })
  end;
  if Addr.is_public write_region then begin
    let event_id = record_access t p ~kind:Event.Write ~target:write_region in
    let absorbed =
      check_access t p ~region:write_region ~cls:Plain_write ~v0 ~event_id
    in
    if t.mh.write_acquires_order then
      Vector_clock.merge_into ~into:v0 absorbed
  end

(* Maximal runs of consecutive pairs satisfying [key prev cur]. *)
let group_runs ~key pairs =
  match pairs with
  | [] -> []
  | first :: rest ->
      let runs = ref [] and cur = ref [ first ] and prev = ref first in
      List.iter
        (fun pair ->
          if key !prev pair then cur := pair :: !cur
          else begin
            runs := List.rev !cur :: !runs;
            cur := [ pair ]
          end;
          prev := pair)
        rest;
      runs := List.rev !cur :: !runs;
      List.rev !runs

let span_of (first : Addr.region) (last : Addr.region) =
  Addr.region ~pid:first.base.pid ~space:Addr.Public
    ~offset:first.base.offset
    ~len:(last.base.offset + last.len - first.base.offset)

let last_of run = snd (List.nth run (List.length run - 1))

(* A run of puts is batchable when the destinations sit on one node in
   ascending non-overlapping order and no source is public (a public
   source would need its own read-side lock, breaking the single-span
   locking scheme — those fall back to per-op puts). *)
let put_run t p run =
  match run with
  | [] -> ()
  | [ (src, dst) ] -> put t p ~src ~dst
  | ((_, (dst0 : Addr.region)) :: _ : (Addr.region * Addr.region) list) ->
      if List.exists (fun ((src : Addr.region), _) -> Addr.is_public src) run
      then List.iter (fun (src, dst) -> put t p ~src ~dst) run
      else begin
        let extra_words = piggyback_words t in
        let check (src, dst) =
          check_op t p ~kind:"put" ~read_region:src ~write_region:dst
        in
        match t.config.Config.transport with
        | Config.Inline ->
            List.iter check run;
            count_shipped t 1;
            Machine.put_batch p ~pairs:run ~extra_words ()
        | Config.Piggyback_txn ->
            (* one lock acquisition spanning the whole run instead of
               one per put (Algorithm 1, amortized) *)
            let span = span_of dst0 (last_of run) in
            let tk = Machine.lock p span in
            List.iter check run;
            count_shipped t 1;
            Machine.raw_put_batch p ~pairs:run ~extra_words ();
            Machine.unlock p tk
        | Config.Explicit_txn ->
            List.iter (fun (src, dst) -> put t p ~src ~dst) run
      end

let put_batch t p ~pairs =
  match t.config.Config.transport with
  | Config.Explicit_txn ->
      (* the explicit transport pays its control round trips per granule
         either way; batching the data message would not change them *)
      List.iter (fun (src, dst) -> put t p ~src ~dst) pairs
  | Config.Inline | Config.Piggyback_txn ->
      List.iter (put_run t p)
        (group_runs pairs
           ~key:(fun (_, (prev : Addr.region)) (_, (cur : Addr.region)) ->
             cur.base.pid = prev.base.pid
             && Addr.is_public cur
             && cur.base.offset >= prev.base.offset + prev.len))

(* Gets batch when the sources are contiguous ascending spans of one
   node and no destination is public (Figure 3 would demand a lock per
   public destination). *)
let get_run t p run =
  match run with
  | [] -> ()
  | [ (src, dst) ] -> get t p ~src ~dst
  | (((src0 : Addr.region), _) :: _ : (Addr.region * Addr.region) list) ->
      if List.exists (fun (_, (dst : Addr.region)) -> Addr.is_public dst) run
      then List.iter (fun (src, dst) -> get t p ~src ~dst) run
      else begin
        let extra_words = piggyback_words t in
        let check (src, dst) =
          check_op t p ~kind:"get" ~read_region:src ~write_region:dst
        in
        match t.config.Config.transport with
        | Config.Inline ->
            List.iter check run;
            count_shipped t 2;
            Machine.get_batch p ~pairs:run ~extra_words ()
        | Config.Piggyback_txn ->
            let span = span_of src0 (fst (List.nth run (List.length run - 1)))
            in
            let tk = Machine.lock p span in
            List.iter check run;
            count_shipped t 2;
            Machine.raw_get_batch p ~pairs:run ~extra_words ();
            Machine.unlock p tk
        | Config.Explicit_txn ->
            List.iter (fun (src, dst) -> get t p ~src ~dst) run
      end

let get_batch t p ~pairs =
  match t.config.Config.transport with
  | Config.Explicit_txn ->
      List.iter (fun (src, dst) -> get t p ~src ~dst) pairs
  | Config.Inline | Config.Piggyback_txn ->
      List.iter (get_run t p)
        (group_runs pairs
           ~key:(fun ((prev : Addr.region), _) ((cur : Addr.region), _) ->
             cur.base.pid = prev.base.pid
             && cur.base.offset = prev.base.offset + prev.len))

(* Checked one-sided read-modify-writes (extension beyond the paper).

   The machine-level RMW runs first: whether it actually wrote (a failed
   compare-and-swap does not) decides the write-half marking, and that
   outcome is only known once the target NIC has applied the operation.
   Detection then performs the read half and the write half against the
   granule's V/W in one uninterrupted step — the meta-level mirror of
   the NIC's single region-lock hold — after acquiring the granule's S
   clock (see [check_granule]). Running detection after the fabric round
   trip is sound exactly because of that acquire: any RMW whose marks
   this access must not race with also released into S, and the two
   sides of a plain/RMW race stay concurrent whichever detection runs
   first, since plain accesses never release into S.

   [read_src] is a local staging region some RMWs (accumulate) read
   their operands from; when it is public it gets its own plain-read
   check, like [checked_op]'s read side. *)

(* Release the accessor's pre-RMW history into the granule's S clocks
   BEFORE the fabric round trip. The target NIC serializes RMWs on a
   granule under the region lock, so any RMW applied after this one
   observes this release at its own acquire no matter how the two reply
   deliveries interleave back at the origins. Without it a tie between
   reply events could run the later RMW's detection (and S acquire)
   before the earlier RMW's detection-time merge, and a poller that just
   observed a flag value could still be reported as racing with the
   flagger's earlier writes in some explored schedules. The release
   deliberately excludes the RMW's own tick — that mark joins V/W/S only
   at detection time, which is what keeps RMW/plain races visible. *)
let release_rmw_history t p ~(region : Addr.region) =
  if not t.mh.rmw_acquires_order then ()
  else begin
  let node = region.base.pid in
  let pid = Machine.pid p in
  let v0 = t.procs.(pid) in
  let store = t.stores.(node) in
  let remote_explicit =
    match t.config.Config.transport with
    | Config.Explicit_txn -> node <> pid
    | Config.Inline | Config.Piggyback_txn -> false
  in
  (* a remote explicit release is recorded where it lands, in the vput
     handler *)
  if not remote_explicit then record_rmw_release t ~pid ~target:region;
  Clock_store.iter_granules store region ~f:(fun ~offset ~len ->
      if remote_explicit then begin
        let payload = Array.make (3 + t.dim) 0 in
        payload.(0) <- offset;
        payload.(1) <- len;
        payload.(2) <- s_release_code;
        Vector_clock.store_words v0 payload ~off:3;
        t.meta_messages <- t.meta_messages + 1;
        t.clock_words_shipped <- t.clock_words_shipped + t.dim;
        Machine.control_async p ~target:node ~tag:vput_tag ~words:payload
      end
      else
        let e = Clock_store.entry_at store ~offset ~len in
        Vector_clock.merge_into ~into:e.s v0)
  end

let checked_rmw t p ?read_src ~(region : Addr.region) ~run_op () =
  count_shipped t 2;
  release_rmw_history t p ~region;
  let result, wrote = run_op ~extra_words:(piggyback_words t) in
  t.checked_ops <- t.checked_ops + 1;
  let pid = Machine.pid p in
  let v0 = t.procs.(pid) in
  if t.probe.on then
    Dsm_obs.Probe.emit t.probe
      (Detector_check
         {
           time = now t;
           pid;
           kind = "atomic";
           fast_path = Vector_clock.is_epoch v0;
         });
  Vector_clock.tick v0 ~me:(me t p);
  (match read_src with
  | Some r when Addr.is_public r ->
      let event_id = record_access t p ~kind:Event.Read ~target:r in
      let absorbed =
        check_access t p ~region:r ~cls:Plain_read ~v0 ~event_id
      in
      Vector_clock.merge_into ~into:v0 absorbed
  | Some _ | None -> ());
  let event_id = record_access t p ~kind:Event.Atomic_update ~target:region in
  let absorbed = check_access t p ~region ~cls:(Rmw { wrote }) ~v0 ~event_id in
  Vector_clock.merge_into ~into:v0 absorbed;
  if t.probe.on then
    Dsm_obs.Probe.emit t.probe (Clock_merge { time = now t; pid });
  result

let check_rmw_target (target : Addr.global) =
  if target.space <> Addr.Public then
    invalid_arg "Detector.atomic: target is not public"

let fetch_add t p ~target ~delta =
  check_rmw_target target;
  checked_rmw t p
    ~region:(Addr.region_of_global target ~len:1)
    ~run_op:(fun ~extra_words ->
      (Machine.fetch_add p ~target ~extra_words ~delta (), true))
    ()

let cas t p ~target ~expected ~desired =
  check_rmw_target target;
  checked_rmw t p
    ~region:(Addr.region_of_global target ~len:1)
    ~run_op:(fun ~extra_words ->
      let ok = Machine.cas p ~target ~extra_words ~expected ~desired () in
      (ok, ok))
    ()

let accumulate t p ~src ~(dst : Addr.region) ~aop =
  if not (Addr.is_public dst) then
    invalid_arg "Detector.accumulate: dst is not public";
  checked_rmw t p ~read_src:src ~region:dst
    ~run_op:(fun ~extra_words ->
      (Machine.accumulate p ~src ~dst ~aop ~extra_words (), true))
    ()

let record_lock t ~pid ~phase ~lock ~time =
  match t.recorder with
  | None -> ()
  | Some rec_ -> (
      match phase with
      | `Acquire -> ignore (Recorder.lock_acquire rec_ ~time ~pid ~lock)
      | `Release -> ignore (Recorder.lock_release rec_ ~time ~pid ~lock))

(* User-level checked locks. [Machine.lock] provides the mutual
   exclusion; when [lock_aware_clocks] is set the lock also carries
   causality: release publishes the holder's clock into the lock's
   clock, acquire absorbs it — the classic release/acquire discipline
   the paper's algorithm lacks (experiment E11). *)
type lock_handle = { token : Machine.token; lock_region : Addr.region }

let lock_clock t (r : Addr.region) =
  match Hashtbl.find_opt t.lock_clocks r with
  | Some c -> c
  | None ->
      let c = Clock_store.make_clock t.config.Config.clock_rep ~n:t.dim in
      Hashtbl.add t.lock_clocks r c;
      c

let lock t p (r : Addr.region) =
  let token = Machine.lock p r in
  if t.recorder <> None then
    record_lock t ~pid:(Machine.pid p) ~phase:`Acquire
      ~lock:(Addr.to_string r) ~time:(now t);
  if t.config.Config.lock_aware_clocks then begin
    let v0 = t.procs.(Machine.pid p) in
    Vector_clock.tick v0 ~me:(me t p);
    Vector_clock.merge_into ~into:v0 (lock_clock t r);
    if t.probe.on then
      Dsm_obs.Probe.emit t.probe
        (Clock_merge { time = now t; pid = Machine.pid p })
  end;
  { token; lock_region = r }

let unlock t p h =
  if t.config.Config.lock_aware_clocks then begin
    let v0 = t.procs.(Machine.pid p) in
    Vector_clock.tick v0 ~me:(me t p);
    Vector_clock.merge_into ~into:(lock_clock t h.lock_region) v0
  end;
  if t.recorder <> None then
    record_lock t ~pid:(Machine.pid p) ~phase:`Release
      ~lock:(Addr.to_string h.lock_region) ~time:(now t);
  Machine.unlock p h.token

let barrier_sync t =
  let merged = t.scratch_barrier in
  Vector_clock.reset merged;
  Array.iter (fun c -> Vector_clock.merge_into ~into:merged c) t.procs;
  Array.iter (fun c -> Vector_clock.merge_into ~into:c merged) t.procs;
  if t.probe.on then
    for pid = 0 to Array.length t.procs - 1 do
      Dsm_obs.Probe.emit t.probe (Clock_merge { time = now t; pid })
    done

let on_barrier t ~pid ~phase ~generation ~time =
  match t.recorder with
  | None -> ()
  | Some rec_ -> (
      match phase with
      | `Enter -> ignore (Recorder.barrier_enter rec_ ~time ~pid ~generation)
      | `Exit -> ignore (Recorder.barrier_exit rec_ ~time ~pid ~generation))

let proc_clock t pid = Vector_clock.snapshot t.procs.(pid)

let provenance t = t.provenance

let trace t = Option.map Recorder.finish t.recorder

let checked_ops t = t.checked_ops

let meta_messages t = t.meta_messages

(* Under the piggyback transports the true cost is what the machine's
   encoder actually shipped (delta/sparse/dense per [clock_wire]); the
   [count_shipped] field keeps the nominal dense allowance for the
   latency model's books. Explicit transport still counts its control
   payload words directly. *)
let clock_words_shipped t =
  match t.config.Config.transport with
  | Config.Inline | Config.Piggyback_txn -> Machine.clock_words_sent t.machine
  | Config.Explicit_txn -> t.clock_words_shipped

let storage_words t =
  Array.fold_left (fun acc s -> acc + Clock_store.storage_words s) 0 t.stores
  + Array.fold_left (fun acc c -> acc + Vector_clock.size_words c) 0 t.procs

let epoch_clocks t =
  Array.fold_left (fun acc s -> acc + Clock_store.epoch_clocks s) 0 t.stores
  + Array.fold_left
      (fun acc c -> acc + if Vector_clock.is_epoch c then 1 else 0)
      0 t.procs
