(* Machine fuzzing: random programs over the full operation surface must
   complete, stay coherent, and be bit-deterministic. *)

open Dsm_sim
open Dsm_memory
module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report

type fingerprint = {
  races : int;
  race_csv : string;
      (* every signal rendered with both clocks: the exact race set *)
  messages : int;
  words : int;
  time : float;
  violations : int;
  memory : int list; (* final contents of the shared variables *)
}

(* One random run: 4 processes × [ops] random operations (put / get /
   fetch_add / cas / mutex-protected RMW) over 3 shared variables. *)
let run_once ?(clock_rep = Config.default.Config.clock_rep) ~seed ~ops () =
  let sim = Engine.create ~seed () in
  let latency =
    Dsm_net.Latency.Jittered
      { model = Dsm_net.Latency.Constant 1.0; mean_jitter = 2.0 }
  in
  let m = Machine.create sim ~n:4 ~latency () in
  let checker = Coherence.attach m in
  let d =
    Detector.create m
      ~config:
        { Config.default with Config.granularity = Config.Word; clock_rep }
      ()
  in
  let vars =
    Array.init 3 (fun i ->
        Machine.alloc_public m ~pid:(i + 1)
          ~name:(Printf.sprintf "v%d" i)
          ~len:4 ())
  in
  (* One mutex per variable, distinct from the data (cf. Locked_counter). *)
  let mutexes =
    Array.init 3 (fun i ->
        Machine.alloc_public m ~pid:(i + 1)
          ~name:(Printf.sprintf "m%d" i)
          ~len:1 ())
  in
  for pid = 0 to 3 do
    let g = Prng.create ~seed:(seed + (97 * pid)) in
    let plan =
      List.init ops (fun _ ->
          (Prng.int g 5, Prng.int g 3, Prng.int g 4, Prng.float g 15.0))
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
            | _ ->
                (* mutex-protected read-modify-write on one word *)
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
  }

let test_fuzz_completes_and_coherent () =
  List.iter
    (fun seed ->
      let fp = run_once ~seed ~ops:15 () in
      Alcotest.(check int)
        (Printf.sprintf "seed %d coherent" seed)
        0 fp.violations;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d made progress" seed)
        true
        (fp.messages > 0 && fp.time > 0.))
    [ 11; 22; 33; 44; 55; 66; 77; 88 ]

let test_fuzz_deterministic () =
  List.iter
    (fun seed ->
      let a = run_once ~seed ~ops:12 () in
      let b = run_once ~seed ~ops:12 () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d reproducible" seed)
        true (a = b))
    [ 5; 6; 7 ]

let test_fuzz_seed_sensitive () =
  let a = run_once ~seed:1 ~ops:12 () in
  let b = run_once ~seed:2 ~ops:12 () in
  Alcotest.(check bool) "different seeds differ" true (a <> b)

(* The adaptive representation must be invisible: the always-vector
   ablation run of the same program yields a bit-identical fingerprint —
   including the rendered race set with both clocks of every signal. *)
let test_fuzz_sparse_dense_equivalent () =
  List.iter
    (fun seed ->
      let a = run_once ~clock_rep:Config.Sparse_vector ~seed ~ops:14 () in
      let b = run_once ~clock_rep:Config.Dense_vector ~seed ~ops:14 () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d race set" seed)
        b.race_csv a.race_csv;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d full fingerprint" seed)
        true (a = b))
    [ 3; 14; 15; 92; 65; 35 ]

let prop_sparse_dense_equivalent =
  QCheck.Test.make ~name:"sparse = dense on random traces" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 101 1_000_000))
    (fun seed ->
      run_once ~clock_rep:Config.Sparse_vector ~seed ~ops:10 ()
      = run_once ~clock_rep:Config.Dense_vector ~seed ~ops:10 ())

(* --- Sparse wire codec fuzz (ISSUE 5): round-trip + rejection. ------ *)

module Vector_clock = Dsm_clocks.Vector_clock
module Codec = Dsm_clocks.Codec

let check_roundtrip name c =
  let w = Codec.encode_vector_sparse c in
  let c' = Codec.decode_vector_sparse w in
  Alcotest.(check bool)
    (name ^ " round-trips") true
    (Vector_clock.equal c c');
  Alcotest.(check bool)
    (name ^ " decodes to sparse policy") true
    (Vector_clock.rep c' = Vector_clock.Sparse)

let test_codec_sparse_directed () =
  (* empty *)
  let zero = Vector_clock.create ~n:16 in
  check_roundtrip "zero clock" zero;
  Alcotest.(check int)
    "zero clock ships headers only" 2
    (Array.length (Codec.encode_vector_sparse zero));
  (* single entry *)
  let single = Vector_clock.create ~n:16 in
  Vector_clock.tick single ~me:3;
  check_roundtrip "single entry" single;
  Alcotest.(check int)
    "single entry ships one pair" 4
    (Array.length (Codec.encode_vector_sparse single));
  (* promotion boundary: exactly threshold live components, then one
     past it (the clock flips to dense storage; the codec must not
     care which side of the boundary it is on) *)
  let n = 32 in
  let thr = Vector_clock.sparse_threshold ~n in
  let at = Vector_clock.create ~n in
  for pid = 0 to thr - 1 do
    let other = Vector_clock.create ~n in
    Vector_clock.tick other ~me:pid;
    Vector_clock.merge_into ~into:at other
  done;
  Alcotest.(check bool) "at threshold still sparse" true
    (Vector_clock.is_sparse at);
  check_roundtrip "at promotion threshold" at;
  let past = Vector_clock.copy at in
  let other = Vector_clock.create ~n in
  Vector_clock.tick other ~me:thr;
  Vector_clock.merge_into ~into:past other;
  Alcotest.(check bool) "past threshold promoted" false
    (Vector_clock.is_sparse past);
  check_roundtrip "past promotion threshold" past;
  (* max pid *)
  let last = Vector_clock.create ~n:64 in
  Vector_clock.tick last ~me:63;
  check_roundtrip "max-pid entry" last;
  (* rejection: truncated, padded, and corrupted buffers all raise *)
  let w = Codec.encode_vector_sparse past in
  let rejects name w =
    match Codec.decode_vector_sparse w with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: malformed buffer was accepted" name
  in
  rejects "truncated buffer" (Array.sub w 0 (Array.length w - 1));
  rejects "padded buffer" (Array.append w [| 0 |]);
  rejects "headerless buffer" [||];
  rejects "negative pair count" [| 8; -1 |];
  rejects "pair count beyond dim" [| 2; 3; 0; 1; 1; 1; 2; 1 |];
  rejects "unsorted pids" [| 8; 2; 5; 1; 3; 1 |];
  rejects "duplicate pids" [| 8; 2; 3; 1; 3; 1 |];
  rejects "pid out of range" [| 8; 1; 8; 1 |];
  rejects "non-positive tick" [| 8; 1; 2; 0 |]

(* Random clocks of random dimension and density round-trip losslessly,
   and the sparse wire never beats the Charron-Bost bound's shape: at
   most [2n + 2] words. *)
let prop_codec_sparse_roundtrip =
  QCheck.Test.make ~name:"sparse codec round-trips random clocks" ~count:200
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
        Gen.(pair (int_range 1 64) (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let a =
        Array.init n (fun _ ->
            if Prng.int g 4 = 0 then 1 + Prng.int g 1_000 else 0)
      in
      let c = Vector_clock.of_array a in
      let w = Codec.encode_vector_sparse c in
      Array.length w <= (2 * n) + 2
      && Vector_clock.equal c (Codec.decode_vector_sparse w))

(* --- Delta / varint / piggyback codec fuzz (ISSUE 8). -------------- *)

(* Random base clocks with a random subset of components advanced: the
   delta round-trips against the same base and its payload is exactly
   [2 + 2·changed] words — the size the wire accounting banks on. *)
let prop_codec_delta_roundtrip =
  QCheck.Test.make ~name:"delta codec round-trips random advances" ~count:200
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
        Gen.(pair (int_range 1 64) (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let a =
        Array.init n (fun _ ->
            if Prng.int g 3 = 0 then 1 + Prng.int g 1_000 else 0)
      in
      let base = Vector_clock.of_array a in
      let b = Array.copy a in
      let changed = ref 0 in
      Array.iteri
        (fun i x ->
          if Prng.int g 4 = 0 then begin
            b.(i) <- x + 1 + Prng.int g 50;
            incr changed
          end)
        a;
      let v = Vector_clock.of_array b in
      let w = Codec.encode_vector_delta ~since:base v in
      Array.length w = 2 + (2 * !changed)
      && Vector_clock.equal v (Codec.decode_vector_delta ~base w))

(* A delta decoded against the wrong base silently reconstructs the
   wrong clock — the reason the piggyback layer refuses deltas outside
   strict per-edge FIFO. The codec itself must at least reject a base of
   the wrong dimension. *)
let test_codec_delta_since_mismatch () =
  let base = Vector_clock.of_array [| 1; 2; 3 |] in
  let v = Vector_clock.of_array [| 1; 5; 3 |] in
  let w = Codec.encode_vector_delta ~since:base v in
  (match
     Codec.decode_vector_delta ~base:(Vector_clock.create ~n:5) w
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong-dimension base was accepted");
  (* same dimension, different value: decodes, but to the value implied
     by that base — never to the sender's clock *)
  let other = Vector_clock.of_array [| 9; 2; 9 |] in
  let v' = Codec.decode_vector_delta ~base:other w in
  Alcotest.(check bool) "drifted base reconstructs a drifted clock" false
    (Vector_clock.equal v v')

let prop_codec_varint_roundtrip_random =
  QCheck.Test.make ~name:"varint codec round-trips random clocks" ~count:200
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
        Gen.(pair (int_range 1 64) (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let a =
        Array.init n (fun _ ->
            match Prng.int g 4 with
            | 0 -> 0
            | 1 -> Prng.int g 128
            | 2 -> 128 + Prng.int g 100_000
            | _ -> Prng.int g 1_000_000_000)
      in
      let c = Vector_clock.of_array a in
      Vector_clock.equal c
        (Codec.decode_vector_varint (Codec.encode_vector_varint c)))

(* Self-framed piggybacks under every mode: the frame round-trips, the
   adaptive mode's frame is never larger than either self-contained
   form, and tampering with the tag of a delta frame is caught. *)
let prop_codec_piggyback_roundtrip =
  QCheck.Test.make ~name:"piggyback frames round-trip random clocks"
    ~count:200
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
        Gen.(pair (int_range 1 48) (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let a =
        Array.init n (fun _ ->
            if Prng.int g 3 = 0 then 1 + Prng.int g 1_000 else 0)
      in
      let since = Vector_clock.of_array a in
      let b = Array.copy a in
      Array.iteri
        (fun i x -> if Prng.int g 5 = 0 then b.(i) <- x + 1 + Prng.int g 9)
        a;
      let v = Vector_clock.of_array b in
      let seq = Prng.int g 1_000 in
      let dense = Codec.encode_piggyback ~mode:Codec.Dense ~seq v in
      let sparse = Codec.encode_piggyback ~mode:Codec.Sparse ~seq v in
      let adaptive = Codec.encode_piggyback ~mode:Codec.Delta ~seq ~since v in
      let ok_roundtrip w =
        let v', s = Codec.decode_piggyback ~expect_seq:seq ~base:since w in
        Vector_clock.equal v v' && s = seq
      in
      ok_roundtrip dense && ok_roundtrip sparse && ok_roundtrip adaptive
      && Array.length adaptive <= Array.length dense
      && Array.length adaptive <= Array.length sparse)

(* --- Frame identity against the three-candidate encoder. ---------- *)

(* The reference the arithmetic encoder must match word for word: build
   all three candidate payloads from the dense array, keep the smallest
   (sparse on a tie with dense, delta only when strictly smaller), and
   decode through a dense array. Deliberately naive — O(n) everywhere. *)
module Oracle = struct
  let encode_vector v =
    let a = Vector_clock.to_array v in
    let n = Array.length a in
    Array.init (n + 1) (fun i -> if i = 0 then n else a.(i - 1))

  let encode_vector_sparse v =
    let a = Vector_clock.to_array v in
    let pairs =
      List.concat
        (List.filter_map
           (fun i -> if a.(i) <> 0 then Some [ i; a.(i) ] else None)
           (List.init (Array.length a) Fun.id))
    in
    Array.of_list ((Array.length a :: (List.length pairs / 2) :: pairs))

  let encode_vector_delta ~since v =
    let n = Vector_clock.dim v in
    let diffs =
      List.filter_map
        (fun i ->
          let x = Vector_clock.entry v i in
          if x <> Vector_clock.entry since i then Some (i, x) else None)
        (List.init n Fun.id)
    in
    Array.of_list
      (n :: List.length diffs
      :: List.concat_map (fun (i, x) -> [ i; x ]) diffs)

  let frame ~tag ~seq payload = Array.append [| tag; seq |] payload

  let encode_piggyback ~mode ~seq ?since v =
    match (mode : Codec.piggyback_mode) with
    | Dense -> frame ~tag:0 ~seq (encode_vector v)
    | Sparse -> frame ~tag:1 ~seq (encode_vector_sparse v)
    | Delta -> (
        let dense = encode_vector v and sparse = encode_vector_sparse v in
        let self_contained =
          if Array.length sparse <= Array.length dense then
            frame ~tag:1 ~seq sparse
          else frame ~tag:0 ~seq dense
        in
        match since with
        | Some s when Vector_clock.dim s = Vector_clock.dim v ->
            let d = encode_vector_delta ~since:s v in
            if Array.length d + 2 < Array.length self_contained then
              frame ~tag:2 ~seq d
            else self_contained
        | _ -> self_contained)

  let decode_vector_sparse w =
    let n = w.(0) and k = w.(1) in
    if n <= 0 || k < 0 || k > n || Array.length w <> 2 + (2 * k) then
      invalid_arg "oracle: malformed";
    let a = Array.make n 0 in
    let prev = ref (-1) in
    for j = 0 to k - 1 do
      let pid = w.(2 + (2 * j)) and tick = w.(3 + (2 * j)) in
      if pid <= !prev || pid >= n || tick <= 0 then
        invalid_arg "oracle: malformed";
      a.(pid) <- tick;
      prev := pid
    done;
    Vector_clock.of_array a

  let decode_vector_delta ~base w =
    let n = w.(0) and count = w.(1) in
    if n <> Vector_clock.dim base || count < 0
       || Array.length w <> 2 + (2 * count)
    then invalid_arg "oracle: malformed";
    let a = Vector_clock.to_array base in
    for k = 0 to count - 1 do
      let i = w.(2 + (2 * k)) and x = w.(3 + (2 * k)) in
      if i < 0 || i >= n || x < 0 then invalid_arg "oracle: malformed";
      a.(i) <- x
    done;
    Vector_clock.of_array a
end

(* [a] as a clock under either policy; [promoted] forces a
   [Sparse]-policy clock into the dense array, whatever its live count,
   by merging a dense-policy source into it. *)
let clock_of a ~dense ~promoted =
  if promoted && not dense then begin
    let c = Vector_clock.create ~n:(Array.length a) in
    Vector_clock.merge_into ~into:c (Vector_clock.of_array ~dense:true a);
    c
  end
  else Vector_clock.of_array ~dense a

(* A clock of dimension [n] under either policy, in a chosen stage:
   0 epoch (at most one live entry), 1 pairs (up to the promotion
   threshold), 2 full (past it), 3 as 1 but promoted. *)
let clock_in_stage g ~n ~dense ~stage =
  let thr = Vector_clock.sparse_threshold ~n in
  let live =
    match stage with
    | 0 -> Prng.int g 2
    | 1 | 3 -> min n (2 + Prng.int g (max 1 (thr - 1)))
    | _ -> min n (thr + 1 + Prng.int g (max 1 (n - thr)))
  in
  let a = Array.make n 0 in
  for _ = 1 to live do
    a.(Prng.int g n) <- 1 + Prng.int g 1_000
  done;
  clock_of a ~dense ~promoted:(stage = 3)

(* [since] close to [v] — some entries kept, some lowered, zeroed,
   raised or newly live — so that every candidate gets to win. *)
let perturb g v ~dense =
  let a = Vector_clock.to_array v in
  Array.iteri
    (fun i x ->
      match Prng.int g 8 with
      | 0 -> a.(i) <- 0
      | 1 -> a.(i) <- max 0 (x - 1 - Prng.int g 5)
      | 2 -> a.(i) <- x + 1 + Prng.int g 5
      | _ -> ())
    a;
  clock_of a ~dense ~promoted:(Prng.int g 2 = 0)

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let same_clock a b =
  match (a, b) with
  | Ok x, Ok y -> Vector_clock.equal x y
  | Error (), Error () -> true
  | _ -> false

(* Every mode, both policies, every stage, n in 1..48 plus 1024, with a
   [since] of another representation or stage, of another dimension, or
   none: the frame equals the oracle's word for word, and it decodes to
   the clock the oracle's dense decoder returns. *)
let prop_piggyback_frame_identity =
  QCheck.Test.make ~name:"piggyback frames equal the three-candidate oracle"
    ~count:400
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
        Gen.(
          pair
            (frequency [ (7, int_range 1 48); (1, return 1024) ])
            (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let v =
        clock_in_stage g ~n ~dense:(Prng.int g 2 = 0) ~stage:(Prng.int g 4)
      in
      let since =
        match Prng.int g 8 with
        | 0 -> None
        | 1 -> Some (Vector_clock.create ~n:(n + 1))
        | 2 | 3 ->
            Some
              (clock_in_stage g ~n ~dense:(Prng.int g 2 = 0)
                 ~stage:(Prng.int g 4))
        | _ -> Some (perturb g v ~dense:(Prng.int g 2 = 0))
      in
      let seq = Prng.int g 1_000 in
      List.for_all
        (fun mode ->
          let w = Codec.encode_piggyback ~mode ~seq ?since v in
          w = Oracle.encode_piggyback ~mode ~seq ?since v
          &&
          let base =
            match since with
            | Some s when Vector_clock.dim s = n -> Some s
            | _ -> None
          in
          let v', seq' = Codec.decode_piggyback ~expect_seq:seq ?base w in
          seq' = seq && Vector_clock.equal v v')
        [ Codec.Dense; Codec.Sparse; Codec.Delta ]
      && Codec.encode_vector_sparse v = Oracle.encode_vector_sparse v
      &&
      match since with
      | Some s when Vector_clock.dim s = n ->
          Codec.encode_vector_delta ~since:s v
          = Oracle.encode_vector_delta ~since:s v
      | _ -> true)

(* Arbitrary payloads — valid, non-monotone, zero-valued, duplicate or
   out-of-range indices, bad headers — decode to the oracle's clock, or
   are rejected by both, directly and inside a frame. *)
let prop_decoders_match_oracle =
  QCheck.Test.make ~name:"sparse and delta decoders match the dense oracle"
    ~count:400
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
        Gen.(pair (int_range 1 40) (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let base =
        clock_in_stage g ~n ~dense:(Prng.int g 4 = 0) ~stage:(Prng.int g 4)
      in
      let count = Prng.int g 8 in
      let pairs = Array.make (2 * count) 0 in
      let prev = ref (-1) in
      for k = 0 to count - 1 do
        let i =
          match Prng.int g 10 with
          | 0 -> !prev (* duplicate *)
          | 1 -> if Prng.int g 2 = 0 then -1 else n
          | 2 | 3 | 4 -> !prev + 1 + Prng.int g 3 (* ascending *)
          | _ -> Prng.int g n
        in
        let cur = if i >= 0 && i < n then Vector_clock.entry base i else 0 in
        let x =
          match Prng.int g 8 with
          | 0 -> 0
          | 1 -> max 0 (cur - 1 - Prng.int g 3)
          | 2 -> -1
          | 3 -> cur
          | _ -> cur + 1 + Prng.int g 9
        in
        pairs.(2 * k) <- i;
        pairs.((2 * k) + 1) <- x;
        prev := i
      done;
      let hdr_n = if Prng.int g 10 = 0 then n + 1 else n in
      let hdr_k =
        match Prng.int g 10 with 0 -> count + 1 | 1 -> -1 | _ -> count
      in
      let payload = Array.append [| hdr_n; hdr_k |] pairs in
      let seq = Prng.int g 100 in
      same_clock
        (outcome (fun () -> Codec.decode_vector_delta ~base payload))
        (outcome (fun () -> Oracle.decode_vector_delta ~base payload))
      && same_clock
           (outcome (fun () -> Codec.decode_vector_sparse payload))
           (outcome (fun () -> Oracle.decode_vector_sparse payload))
      && same_clock
           (outcome (fun () ->
                fst
                  (Codec.decode_piggyback ~expect_seq:seq ~base
                     (Array.append [| 2; seq |] payload))))
           (outcome (fun () -> Oracle.decode_vector_delta ~base payload))
      && same_clock
           (outcome (fun () ->
                fst
                  (Codec.decode_piggyback ~expect_seq:seq
                     (Array.append [| 1; seq |] payload))))
           (outcome (fun () -> Oracle.decode_vector_sparse payload)))

(* The delta decoder's general path, pinned: an entry that goes down or
   to zero, and a duplicate index whose last write is lower, all decode
   as the dense oracle does (the last write wins); a rising duplicate
   stays on the raise-in-place path. *)
let test_codec_delta_fallback () =
  let a = Array.make 16 0 in
  a.(2) <- 5;
  a.(3) <- 1;
  a.(9) <- 7;
  let base = Vector_clock.of_array a in
  let expect name payload want =
    let got = Codec.decode_vector_delta ~base payload in
    Alcotest.(check bool) (name ^ " = oracle") true
      (Vector_clock.equal got (Oracle.decode_vector_delta ~base payload));
    Alcotest.(check (array int)) name want (Vector_clock.to_array got)
  in
  let with_ i x =
    let b = Array.copy a in
    b.(i) <- x;
    b
  in
  expect "decreasing" [| 16; 1; 2; 1 |] (with_ 2 1);
  expect "zeroed" [| 16; 1; 9; 0 |] (with_ 9 0);
  expect "duplicate, falling" [| 16; 2; 3; 9; 3; 4 |] (with_ 3 4);
  expect "duplicate, rising" [| 16; 2; 3; 4; 3; 9 |] (with_ 3 9);
  expect "new entry" [| 16; 1; 15; 2 |] (with_ 15 2)

let () =
  Alcotest.run "fuzz"
    [
      ( "machine",
        [
          Alcotest.test_case "completes + coherent" `Slow test_fuzz_completes_and_coherent;
          Alcotest.test_case "deterministic" `Slow test_fuzz_deterministic;
          Alcotest.test_case "seed sensitive" `Quick test_fuzz_seed_sensitive;
        ] );
      ( "clock-rep",
        [
          Alcotest.test_case "sparse = dense (directed seeds)" `Quick
            test_fuzz_sparse_dense_equivalent;
          QCheck_alcotest.to_alcotest prop_sparse_dense_equivalent;
        ] );
      ( "codec-sparse",
        [
          Alcotest.test_case "directed round-trips + rejection" `Quick
            test_codec_sparse_directed;
          QCheck_alcotest.to_alcotest prop_codec_sparse_roundtrip;
        ] );
      ( "codec-delta",
        [
          Alcotest.test_case "since mismatch" `Quick
            test_codec_delta_since_mismatch;
          QCheck_alcotest.to_alcotest prop_codec_delta_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_varint_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_codec_piggyback_roundtrip;
          QCheck_alcotest.to_alcotest prop_piggyback_frame_identity;
          QCheck_alcotest.to_alcotest prop_decoders_match_oracle;
          Alcotest.test_case "delta fallback (down, zero, duplicate)" `Quick
            test_codec_delta_fallback;
        ] );
    ]
