(* Unit and property tests for dsm_clocks: the lattice laws behind Lemma 1. *)

open Dsm_clocks

let order_testable = Alcotest.testable Order.pp Order.equal

let vc_testable =
  Alcotest.testable Vector_clock.pp (fun a b -> Vector_clock.equal a b)

(* ---------- Order ---------- *)

let test_order_flip () =
  Alcotest.(check order_testable) "flip before" Order.After (Order.flip Order.Before);
  Alcotest.(check order_testable) "flip after" Order.Before (Order.flip Order.After);
  Alcotest.(check order_testable) "flip equal" Order.Equal (Order.flip Order.Equal);
  Alcotest.(check order_testable)
    "flip concurrent" Order.Concurrent (Order.flip Order.Concurrent)

let test_order_predicates () =
  Alcotest.(check bool) "concurrent" true (Order.concurrent Order.Concurrent);
  Alcotest.(check bool) "not concurrent" false (Order.concurrent Order.Before);
  Alcotest.(check bool) "ordered eq" true (Order.ordered Order.Equal);
  Alcotest.(check bool) "ordered conc" false (Order.ordered Order.Concurrent)

(* ---------- Lamport ---------- *)

let test_lamport_tick () =
  let c = Lamport.create () in
  Alcotest.(check int) "initial" 0 (Lamport.value c);
  Alcotest.(check int) "tick 1" 1 (Lamport.tick c);
  Alcotest.(check int) "tick 2" 2 (Lamport.tick c)

let test_lamport_observe () =
  let c = Lamport.create () in
  ignore (Lamport.tick c);
  Alcotest.(check int) "observe larger" 11 (Lamport.observe c 10);
  Alcotest.(check int) "observe smaller keeps max+1" 12 (Lamport.observe c 3)

let test_lamport_copy_independent () =
  let c = Lamport.create () in
  ignore (Lamport.tick c);
  let d = Lamport.copy c in
  ignore (Lamport.tick c);
  Alcotest.(check int) "copy frozen" 1 (Lamport.value d);
  Alcotest.(check int) "original moved" 2 (Lamport.value c)

let test_lamport_compare_total () =
  Alcotest.(check order_testable) "lt" Order.Before (Lamport.compare_values 1 2);
  Alcotest.(check order_testable) "gt" Order.After (Lamport.compare_values 5 2);
  Alcotest.(check order_testable) "eq" Order.Equal (Lamport.compare_values 3 3)

(* ---------- Vector clocks: directed cases ---------- *)

let vc l = Vector_clock.of_array (Array.of_list l)

let test_vc_create_zero () =
  let c = Vector_clock.create ~n:4 in
  Alcotest.(check bool) "zero" true (Vector_clock.is_zero c);
  Alcotest.(check int) "dim" 4 (Vector_clock.dim c)

let test_vc_create_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument
    "Vector_clock.create: dimension must be positive")
    (fun () -> ignore (Vector_clock.create ~n:0))

let test_vc_of_array_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Vector_clock.of_array: negative entry") (fun () ->
      ignore (vc [ 1; -1 ]))

let test_vc_tick () =
  let c = Vector_clock.create ~n:3 in
  Vector_clock.tick c ~me:1;
  Vector_clock.tick c ~me:1;
  Vector_clock.tick c ~me:2;
  Alcotest.(check vc_testable) "ticked" (vc [ 0; 2; 1 ]) c

let test_vc_compare_cases () =
  let check name expect a b =
    Alcotest.(check order_testable) name expect (Vector_clock.compare a b)
  in
  check "equal" Order.Equal (vc [ 1; 2 ]) (vc [ 1; 2 ]);
  check "before" Order.Before (vc [ 1; 2 ]) (vc [ 1; 3 ]);
  check "after" Order.After (vc [ 4; 2 ]) (vc [ 1; 2 ]);
  check "concurrent" Order.Concurrent (vc [ 1; 0 ]) (vc [ 0; 1 ])

let test_vc_compare_dim_mismatch () =
  Alcotest.check_raises "dim"
    (Invalid_argument "Vector_clock.compare: dimension mismatch") (fun () ->
      ignore (Vector_clock.compare (vc [ 1 ]) (vc [ 1; 2 ])))

let test_vc_merge () =
  Alcotest.(check vc_testable) "merge"
    (vc [ 3; 2; 5 ])
    (Vector_clock.merge (vc [ 3; 0; 5 ]) (vc [ 1; 2; 4 ]))

let test_vc_merge_into () =
  let a = vc [ 3; 0; 5 ] in
  Vector_clock.merge_into ~into:a (vc [ 1; 2; 4 ]);
  Alcotest.(check vc_testable) "merged in place" (vc [ 3; 2; 5 ]) a

let test_vc_snapshot_independent () =
  let a = vc [ 1; 1 ] in
  let s = Vector_clock.snapshot a in
  Vector_clock.tick a ~me:0;
  Alcotest.(check vc_testable) "snapshot frozen" (vc [ 1; 1 ]) s

let test_vc_sum_entry () =
  let a = vc [ 4; 0; 2 ] in
  Alcotest.(check int) "sum" 6 (Vector_clock.sum a);
  Alcotest.(check int) "entry" 2 (Vector_clock.entry a 2);
  Alcotest.(check int) "size_words" 3 (Vector_clock.size_words a)

(* ---------- Vector clocks: epoch representation ---------- *)

(* The adaptive clock must keep the compact epoch form through
   single-writer histories and promote exactly on the first
   cross-process advance — while remaining abstractly identical to the
   dense representation throughout. *)

let test_epoch_lifecycle () =
  let c = Vector_clock.create ~n:4 in
  Alcotest.(check bool) "born epoch" true (Vector_clock.is_epoch c);
  Vector_clock.tick c ~me:2;
  Vector_clock.tick c ~me:2;
  Alcotest.(check bool) "single-writer ticks stay epoch" true
    (Vector_clock.is_epoch c);
  Alcotest.(check vc_testable) "epoch value" (vc [ 0; 0; 2; 0 ]) c;
  Vector_clock.tick c ~me:0;
  Alcotest.(check bool) "second pid promotes" false (Vector_clock.is_epoch c);
  Alcotest.(check vc_testable) "promoted value" (vc [ 1; 0; 2; 0 ]) c

let test_epoch_dense_pinned () =
  let c = Vector_clock.create_dense ~n:3 in
  Alcotest.(check bool) "create_dense is dense" false (Vector_clock.is_epoch c);
  Vector_clock.reset c;
  Alcotest.(check bool) "reset keeps dense pinned" false
    (Vector_clock.is_epoch c);
  Alcotest.(check bool) "reset zeroes" true (Vector_clock.is_zero c)

let test_epoch_reset_reepochs () =
  let c = Vector_clock.create ~n:3 in
  Vector_clock.tick c ~me:0;
  Vector_clock.tick c ~me:1;
  Alcotest.(check bool) "promoted" false (Vector_clock.is_epoch c);
  Vector_clock.reset c;
  Alcotest.(check bool) "reset re-epochs adaptive" true
    (Vector_clock.is_epoch c);
  Alcotest.(check bool) "reset zeroes" true (Vector_clock.is_zero c)

let test_epoch_of_array () =
  Alcotest.(check bool) "one nonzero -> epoch" true
    (Vector_clock.is_epoch (vc [ 0; 7; 0 ]));
  Alcotest.(check bool) "all zero -> epoch" true
    (Vector_clock.is_epoch (vc [ 0; 0; 0 ]));
  Alcotest.(check bool) "two nonzeros -> dense" false
    (Vector_clock.is_epoch (vc [ 1; 7; 0 ]));
  Alcotest.(check bool) "~dense pins" false
    (Vector_clock.is_epoch (Vector_clock.of_array ~dense:true [| 0; 7; 0 |]))

let test_epoch_merge_transitions () =
  (* epoch <- epoch, same owner: stays epoch, takes the max. *)
  let a = vc [ 0; 3; 0 ] in
  Vector_clock.merge_into ~into:a (vc [ 0; 5; 0 ]);
  Alcotest.(check bool) "same-owner merge stays epoch" true
    (Vector_clock.is_epoch a);
  Alcotest.(check vc_testable) "same-owner merge value" (vc [ 0; 5; 0 ]) a;
  (* epoch <- epoch, different owner: promotes, merges correctly. *)
  let b = vc [ 0; 3; 0 ] in
  Vector_clock.merge_into ~into:b (vc [ 2; 0; 0 ]);
  Alcotest.(check bool) "cross-owner merge promotes" false
    (Vector_clock.is_epoch b);
  Alcotest.(check vc_testable) "cross-owner merge value" (vc [ 2; 3; 0 ]) b;
  (* zero epoch <- epoch: adopts the source epoch without promoting. *)
  let z = Vector_clock.create ~n:3 in
  Vector_clock.merge_into ~into:z (vc [ 0; 0; 9 ]);
  Alcotest.(check bool) "zero absorbs epoch compactly" true
    (Vector_clock.is_epoch z);
  Alcotest.(check vc_testable) "absorbed value" (vc [ 0; 0; 9 ]) z;
  (* dense <- epoch: O(1) single-slot update, no representation change. *)
  let d = vc [ 4; 1; 0 ] in
  Vector_clock.merge_into ~into:d (vc [ 0; 6; 0 ]);
  Alcotest.(check vc_testable) "vec absorbs epoch" (vc [ 4; 6; 0 ]) d

let test_epoch_compare_cases () =
  let check name expect a b =
    Alcotest.(check order_testable) name expect (Vector_clock.compare a b)
  in
  (* epoch/epoch, all O(1) decisions *)
  check "zero = zero" Order.Equal (vc [ 0; 0 ]) (vc [ 0; 0 ]);
  check "zero before epoch" Order.Before (vc [ 0; 0 ]) (vc [ 0; 3 ]);
  check "epoch after zero" Order.After (vc [ 0; 3 ]) (vc [ 0; 0 ]);
  check "same owner ordered" Order.Before (vc [ 0; 2 ]) (vc [ 0; 5 ]);
  check "same owner equal" Order.Equal (vc [ 4; 0 ]) (vc [ 4; 0 ]);
  check "different owners concurrent" Order.Concurrent (vc [ 3; 0 ]) (vc [ 0; 1 ]);
  (* epoch vs dense, both directions *)
  check "epoch below vec" Order.Before (vc [ 0; 2; 0 ]) (vc [ 1; 2; 0 ]);
  check "epoch above vec" Order.After (vc [ 0; 9; 0 ]) (vc [ 0; 2; 0 ]);
  check "epoch concurrent vec" Order.Concurrent (vc [ 0; 9; 0 ]) (vc [ 1; 2; 0 ]);
  check "vec above epoch" Order.After (vc [ 1; 2; 0 ]) (vc [ 0; 2; 0 ]);
  (* leq epoch fast path *)
  Alcotest.(check bool) "zero leq anything" true
    (Vector_clock.leq (vc [ 0; 0 ]) (vc [ 0; 1 ]));
  Alcotest.(check bool) "epoch leq vec" true
    (Vector_clock.leq (vc [ 0; 2 ]) (vc [ 5; 2 ]));
  Alcotest.(check bool) "epoch not leq" false
    (Vector_clock.leq (vc [ 0; 3 ]) (vc [ 5; 2 ]))

let test_epoch_words_roundtrip () =
  let w = Array.make 6 99 in
  let c = vc [ 0; 7; 0 ] in
  Vector_clock.store_words c w ~off:2;
  Alcotest.(check (array int)) "stored slice" [| 99; 99; 0; 7; 0; 99 |] w;
  let c' = Vector_clock.create ~n:3 in
  Vector_clock.load_words c' w ~off:2;
  Alcotest.(check bool) "loaded compactly" true (Vector_clock.is_epoch c');
  Alcotest.(check vc_testable) "roundtrip" c c';
  (* merge_words = merge_into of the decoded slice *)
  let m = vc [ 1; 2; 3 ] in
  Vector_clock.merge_words ~into:m w ~off:2;
  Alcotest.(check vc_testable) "merge_words" (vc [ 1; 7; 3 ]) m;
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Vector_clock.load_words: slice out of bounds")
    (fun () -> Vector_clock.load_words c' w ~off:4)

(* ---------- Sparse representation (ISSUE 5 scaling) ---------- *)

let test_sparse_lifecycle () =
  let n = 64 in
  let thr = Vector_clock.sparse_threshold ~n in
  Alcotest.(check bool) "threshold scales with n" true (thr >= 4 && thr < n);
  let c = Vector_clock.create ~n in
  Alcotest.(check bool) "born epoch" true (Vector_clock.is_epoch c);
  Vector_clock.tick c ~me:9;
  Vector_clock.tick c ~me:9;
  Alcotest.(check bool) "single-writer ticks stay epoch" true
    (Vector_clock.is_epoch c);
  (* a second pid promotes to the sorted-pairs form, not to dense *)
  let other = Vector_clock.create ~n in
  Vector_clock.tick other ~me:40;
  Vector_clock.merge_into ~into:c other;
  Alcotest.(check bool) "second pid lands sparse" true
    (Vector_clock.is_sparse c);
  Alcotest.(check int) "entry 9" 2 (Vector_clock.entry c 9);
  Alcotest.(check int) "entry 40" 1 (Vector_clock.entry c 40);
  Alcotest.(check int) "active entries" 2 (Vector_clock.active_entries c);
  (* fill to the threshold: still sparse; one past: promoted to dense *)
  for pid = 0 to thr - 3 do
    let o = Vector_clock.create ~n in
    Vector_clock.tick o ~me:pid;
    Vector_clock.merge_into ~into:c o
  done;
  Alcotest.(check int) "at threshold" thr (Vector_clock.active_entries c);
  Alcotest.(check bool) "at threshold still sparse" true
    (Vector_clock.is_sparse c);
  let o = Vector_clock.create ~n in
  Vector_clock.tick o ~me:50;
  Vector_clock.merge_into ~into:c o;
  Alcotest.(check bool) "past threshold promoted to dense" false
    (Vector_clock.is_sparse c || Vector_clock.is_epoch c);
  Alcotest.(check int) "promotion preserved entries" (thr + 1)
    (Vector_clock.active_entries c);
  (* reset restores the compact epoch form without losing capacity *)
  Vector_clock.reset c;
  Alcotest.(check bool) "reset re-epochs" true (Vector_clock.is_epoch c);
  Alcotest.(check bool) "reset zeroes" true (Vector_clock.is_zero c);
  Alcotest.(check bool) "policy survives reset" true
    (Vector_clock.rep c = Vector_clock.Sparse)

(* Clocks over n = 16 processes, the given leading entries and zeros
   after them: wide enough (n >= 11) for the sorted-pairs stage. *)
let mk16 l =
  Vector_clock.of_array
    (Array.of_list (l @ List.init (16 - List.length l) (fun _ -> 0)))

(* The pairs stage is used only where its two arrays are smaller than the
   dense one: a cross-process merge lands dense at n = 10, on sorted
   pairs at n = 11. *)
let test_pairs_rule () =
  let cross n =
    let c = Vector_clock.create ~n in
    Vector_clock.tick c ~me:0;
    Vector_clock.tick c ~me:1;
    c
  in
  Alcotest.(check bool) "n = 10 promotes to dense" false
    (Vector_clock.is_sparse (cross 10) || Vector_clock.is_epoch (cross 10));
  Alcotest.(check bool) "n = 11 promotes to pairs" true
    (Vector_clock.is_sparse (cross 11));
  Alcotest.(check bool) "of_array follows the rule" true
    ((not (Vector_clock.is_sparse (Vector_clock.of_array [| 1; 2; 0; 0 |])))
    && Vector_clock.is_sparse (mk16 [ 1; 2 ]))

let test_sparse_merge_scan () =
  (* interleaved active pids exercise every branch of the merge scan:
     left-only, right-only, and both-present components *)
  let a = mk16 [ 0; 5; 0; 3; 0; 0; 1; 0 ] in
  let b = mk16 [ 2; 0; 0; 7; 0; 4; 0; 0 ] in
  Alcotest.(check bool) "operands in the pairs stage" true
    (Vector_clock.is_sparse a && Vector_clock.is_sparse b);
  let m = Vector_clock.merge a b in
  Alcotest.(check (array int)) "merge scan"
    (Vector_clock.to_array (mk16 [ 2; 5; 0; 7; 0; 4; 1; 0 ]))
    (Vector_clock.to_array m);
  Vector_clock.merge_into ~into:a b;
  Alcotest.(check (array int)) "merge_into scan"
    (Vector_clock.to_array (mk16 [ 2; 5; 0; 7; 0; 4; 1; 0 ]))
    (Vector_clock.to_array a)

let test_sparse_compare_cases () =
  let x = mk16 [ 1; 0; 2; 0 ] in
  let y = mk16 [ 1; 0; 3; 0 ] in
  let z = mk16 [ 0; 4; 0; 0 ] in
  Alcotest.(check bool) "before" true
    (Order.equal Order.Before (Vector_clock.compare x y));
  Alcotest.(check bool) "after" true
    (Order.equal Order.After (Vector_clock.compare y x));
  Alcotest.(check bool) "concurrent" true (Vector_clock.concurrent x z);
  Alcotest.(check bool) "equal" true
    (Order.equal Order.Equal (Vector_clock.compare x (mk16 [ 1; 0; 2; 0 ])));
  (* mixed representations compare the same abstract vector *)
  let xd = Vector_clock.of_array ~dense:true (Vector_clock.to_array x) in
  Alcotest.(check bool) "sparse vs dense" true
    (Order.equal Order.Before (Vector_clock.compare xd y))

(* ---------- Vector clocks: properties ---------- *)

let gen_vc n =
  QCheck.Gen.(array_size (return n) (int_bound 8) >|= Vector_clock.of_array)

let arb_vc_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Vector_clock.to_string a ^ " / " ^ Vector_clock.to_string b)
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      pair (gen_vc n) (gen_vc n))

let arb_vc_triple =
  QCheck.make
    ~print:(fun (a, b, c) ->
      String.concat " / "
        (List.map Vector_clock.to_string [ a; b; c ]))
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      triple (gen_vc n) (gen_vc n) (gen_vc n))

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare a b = flip (compare b a)" ~count:500
    arb_vc_pair (fun (a, b) ->
      Order.equal (Vector_clock.compare a b)
        (Order.flip (Vector_clock.compare b a)))

let prop_merge_upper_bound =
  QCheck.Test.make ~name:"merge dominates both operands" ~count:500 arb_vc_pair
    (fun (a, b) ->
      let m = Vector_clock.merge a b in
      Vector_clock.leq a m && Vector_clock.leq b m)

let prop_merge_least =
  QCheck.Test.make ~name:"merge is the least upper bound" ~count:500
    arb_vc_triple (fun (a, b, c) ->
      let m = Vector_clock.merge a b in
      if Vector_clock.leq a c && Vector_clock.leq b c then
        Vector_clock.leq m c
      else true)

let prop_merge_commutative_idempotent =
  QCheck.Test.make ~name:"merge commutative and idempotent" ~count:500
    arb_vc_pair (fun (a, b) ->
      Vector_clock.equal (Vector_clock.merge a b) (Vector_clock.merge b a)
      && Vector_clock.equal (Vector_clock.merge a a) a)

let prop_tick_strictly_after =
  QCheck.Test.make ~name:"tick moves strictly after" ~count:500 arb_vc_pair
    (fun (a, _) ->
      let before = Vector_clock.copy a in
      Vector_clock.tick a ~me:0;
      Vector_clock.compare before a = Order.Before)

let prop_leq_transitive =
  QCheck.Test.make ~name:"leq is transitive" ~count:500 arb_vc_triple
    (fun (a, b, c) ->
      if Vector_clock.leq a b && Vector_clock.leq b c then Vector_clock.leq a c
      else true)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"dense codec roundtrip" ~count:500 arb_vc_pair
    (fun (a, _) ->
      Vector_clock.equal a (Codec.decode_vector (Codec.encode_vector a)))

let prop_varint_codec_roundtrip =
  QCheck.Test.make ~name:"varint codec roundtrip" ~count:500 arb_vc_pair
    (fun (a, _) ->
      Vector_clock.equal a
        (Codec.decode_vector_varint (Codec.encode_vector_varint a)))

let prop_varint_at_least_one_byte_per_entry =
  QCheck.Test.make ~name:"varint lower bound (>= n+1 bytes)" ~count:500
    arb_vc_pair (fun (a, _) ->
      Bytes.length (Codec.encode_vector_varint a) >= Vector_clock.dim a + 1)

(* Sparse ≡ dense: the same random history applied to an adaptive and a
   dense clock yields abstractly equal clocks at every step, and the two
   representations of the same value compare identically against any
   third clock — representation must never leak into a verdict. *)

type clock_op = Tick of int | Merge of int array | Reset

(* [entry] draws each component of a merged clock. *)
let gen_ops ?(entry = QCheck.Gen.int_bound 5) n =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (frequency
         [
           (4, int_bound (n - 1) >|= fun p -> Tick p);
           (3, array_size (return n) entry >|= fun a -> Merge a);
           (1, return Reset);
         ]))

let arb_history ?entry ~lo ~hi () =
  let print (n, ops) =
    Printf.sprintf "n=%d " n
    ^ String.concat ";"
      (List.map
         (function
           | Tick p -> Printf.sprintf "tick %d" p
           | Merge a ->
               "merge "
               ^ String.concat ","
                   (Array.to_list (Array.map string_of_int a))
           | Reset -> "reset")
         ops)
  in
  QCheck.make ~print
    QCheck.Gen.(int_range lo hi >>= fun n -> pair (return n) (gen_ops ?entry n))

let apply_op c = function
  | Tick p -> Vector_clock.tick c ~me:p
  | Merge a -> Vector_clock.merge_into ~into:c (Vector_clock.of_array a)
  | Reset -> Vector_clock.reset c

(* n <= 10: the adaptive clock promotes an epoch straight to dense. *)
let prop_adaptive_equals_dense =
  QCheck.Test.make ~name:"adaptive history = dense history" ~count:500
    (arb_history ~lo:1 ~hi:6 ()) (fun (n, ops) ->
      let a = Vector_clock.create ~n in
      let d = Vector_clock.create_dense ~n in
      List.for_all
        (fun op ->
          apply_op a op;
          apply_op d op;
          Vector_clock.equal a d
          && Vector_clock.to_array a = Vector_clock.to_array d)
        ops)

(* n >= 11, mostly-zero merges: the history runs through the sorted-pairs
   stage and across its promotion threshold. *)
let prop_sparse_equals_dense =
  QCheck.Test.make ~name:"sparse history = dense history" ~count:500
    (arb_history
       ~entry:QCheck.Gen.(frequency [ (5, return 0); (1, int_range 1 5) ])
       ~lo:11 ~hi:16 ())
    (fun (n, ops) ->
      let s = Vector_clock.create ~n in
      let d = Vector_clock.create_dense ~n in
      List.for_all
        (fun op ->
          apply_op s op;
          apply_op d op;
          Vector_clock.equal s d
          && Vector_clock.to_array s = Vector_clock.to_array d)
        ops)

let prop_representation_blind_compare =
  QCheck.Test.make ~name:"compare blind to representation" ~count:500
    arb_vc_pair (fun (x, y) ->
      let dense v = Vector_clock.of_array ~dense:true (Vector_clock.to_array v) in
      let expected = Vector_clock.compare (dense x) (dense y) in
      Order.equal expected (Vector_clock.compare x y)
      && Order.equal expected (Vector_clock.compare x (dense y))
      && Order.equal expected (Vector_clock.compare (dense x) y)
      && Vector_clock.leq x y = Vector_clock.leq (dense x) (dense y))

let prop_words_roundtrip =
  QCheck.Test.make ~name:"store_words/load_words roundtrip" ~count:500
    arb_vc_pair (fun (x, _) ->
      let w = Array.make (Vector_clock.dim x + 2) 0 in
      Vector_clock.store_words x w ~off:1;
      let c = Vector_clock.create ~n:(Vector_clock.dim x) in
      Vector_clock.load_words c w ~off:1;
      Vector_clock.equal x c)

(* Word slices embedded at an arbitrary position inside a larger buffer —
   the layout Clock_store entries and piggybacked NIC frames rely on.
   Words outside the slice must survive the store untouched. *)
let arb_vc_pair_off =
  QCheck.make
    ~print:(fun ((a, b), off) ->
      Printf.sprintf "%s / %s @ %d" (Vector_clock.to_string a)
        (Vector_clock.to_string b) off)
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      pair (pair (gen_vc n) (gen_vc n)) (int_range 0 9))

let prop_slice_roundtrip_mid_buffer =
  QCheck.Test.make ~name:"store/load_words mid-buffer, frame intact"
    ~count:500 arb_vc_pair_off (fun ((x, _), off) ->
      let n = Vector_clock.dim x in
      let sentinel = -12345 in
      let w = Array.make (off + n + 3) sentinel in
      Vector_clock.store_words x w ~off;
      let frame_ok = ref true in
      Array.iteri
        (fun i v ->
          if (i < off || i >= off + n) && v <> sentinel then frame_ok := false)
        w;
      let c = Vector_clock.create ~n in
      Vector_clock.load_words c w ~off;
      !frame_ok && Vector_clock.equal x c)

let prop_merge_words_equals_merge_into =
  QCheck.Test.make ~name:"merge_words = merge_into of decoded slice"
    ~count:500 arb_vc_pair_off (fun ((x, y), off) ->
      let n = Vector_clock.dim x in
      let w = Array.make (off + n) 0 in
      Vector_clock.store_words y w ~off;
      let via_words = Vector_clock.copy x in
      Vector_clock.merge_words ~into:via_words w ~off;
      let via_merge = Vector_clock.copy x in
      Vector_clock.merge_into ~into:via_merge y;
      Vector_clock.equal via_words via_merge)

let prop_delta_codec_roundtrip =
  QCheck.Test.make ~name:"delta codec roundtrip" ~count:500 arb_vc_pair
    (fun (base, v) ->
      let w = Codec.encode_vector_delta ~since:base v in
      Vector_clock.equal v (Codec.decode_vector_delta ~base w))

(* ---------- Matrix clocks ---------- *)

let test_mc_create () =
  let m = Matrix_clock.create ~n:3 ~me:1 in
  Alcotest.(check int) "dim" 3 (Matrix_clock.dim m);
  Alcotest.(check int) "owner" 1 (Matrix_clock.owner m);
  Alcotest.(check bool) "zero own vector" true
    (Vector_clock.is_zero (Matrix_clock.own_vector m))

let test_mc_tick () =
  let m = Matrix_clock.create ~n:3 ~me:1 in
  Matrix_clock.tick m;
  Matrix_clock.tick m;
  Alcotest.(check int) "diagonal" 2 (Matrix_clock.entry m 1 1);
  Alcotest.(check vc_testable) "own row" (vc [ 0; 2; 0 ])
    (Matrix_clock.own_vector m)

let test_mc_observe () =
  let a = Matrix_clock.create ~n:2 ~me:0 in
  let b = Matrix_clock.create ~n:2 ~me:1 in
  Matrix_clock.tick a;
  Matrix_clock.tick b;
  Matrix_clock.tick b;
  Matrix_clock.observe a b;
  (* a's principal row absorbs b's principal row. *)
  Alcotest.(check vc_testable) "a knows b" (vc [ 1; 2 ])
    (Matrix_clock.own_vector a);
  (* a's row for b holds b's vector. *)
  Alcotest.(check vc_testable) "a's view of b" (vc [ 0; 2 ])
    (Matrix_clock.row a 1)

let test_mc_min_known () =
  let a = Matrix_clock.create ~n:2 ~me:0 in
  Matrix_clock.tick a;
  (* Row 1 still zero: nothing is known to be known by everyone. *)
  Alcotest.(check int) "min over column 0" 0 (Matrix_clock.min_known a 0)

let test_mc_codec_roundtrip () =
  let a = Matrix_clock.create ~n:3 ~me:2 in
  Matrix_clock.tick a;
  let b = Matrix_clock.create ~n:3 ~me:0 in
  Matrix_clock.tick b;
  Matrix_clock.observe a b;
  let a' = Codec.decode_matrix (Codec.encode_matrix a) in
  Alcotest.(check int) "owner" (Matrix_clock.owner a) (Matrix_clock.owner a');
  for i = 0 to 2 do
    Alcotest.(check vc_testable)
      (Printf.sprintf "row %d" i)
      (Matrix_clock.row a i) (Matrix_clock.row a' i)
  done

let test_mc_of_rows_invalid () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Matrix_clock.of_rows: not square") (fun () ->
      ignore (Matrix_clock.of_rows ~me:0 [| [| 1; 2 |]; [| 3 |] |]))

let test_mc_size_words () =
  let m = Matrix_clock.create ~n:5 ~me:0 in
  Alcotest.(check int) "n^2" 25 (Matrix_clock.size_words m)

(* ---------- Codec edges ---------- *)

let test_codec_varint_malformed () =
  Alcotest.check_raises "truncated"
    (Invalid_argument "Codec.decode_vector_varint: truncated") (fun () ->
      ignore (Codec.decode_vector_varint (Bytes.of_string "\x02\x01")));
  Alcotest.check_raises "trailing"
    (Invalid_argument "Codec.decode_vector_varint: trailing bytes") (fun () ->
      ignore (Codec.decode_vector_varint (Bytes.of_string "\x01\x01\x01")))

let test_codec_varint_large_values () =
  let v = Vector_clock.of_array [| 0; 127; 128; 300; 1_000_000 |] in
  Alcotest.(check bool) "roundtrip big counters" true
    (Vector_clock.equal v
       (Codec.decode_vector_varint (Codec.encode_vector_varint v)))

let test_codec_malformed () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Codec.decode_vector: empty buffer") (fun () ->
      ignore (Codec.decode_vector [||]));
  Alcotest.check_raises "bad header"
    (Invalid_argument "Codec.decode_vector: malformed buffer") (fun () ->
      ignore (Codec.decode_vector [| 3; 1 |]))

let test_codec_matrix_malformed () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Codec.decode_matrix: empty buffer") (fun () ->
      ignore (Codec.decode_matrix [||]));
  Alcotest.check_raises "bad owner"
    (Invalid_argument "Codec.decode_matrix: malformed buffer") (fun () ->
      ignore (Codec.decode_matrix [| 2; 5; 0; 0; 0; 0 |]))

let test_codec_sizes () =
  let v = Vector_clock.create ~n:8 in
  Alcotest.(check int) "dense words" 9 (Array.length (Codec.encode_vector v));
  Alcotest.(check int) "bytes" 72
    (Codec.bytes_of_words (Array.length (Codec.encode_vector v)));
  let w = Codec.encode_vector_delta ~since:v v in
  Alcotest.(check int) "empty delta" 2 (Array.length w)

(* The delta decoder gets the same reject coverage as the sparse one:
   every malformed shape is a clean [Invalid_argument], never an
   out-of-bounds access or an attacker-sized allocation. *)
let test_codec_delta_malformed () =
  let base = Vector_clock.of_array [| 1; 0; 2 |] in
  Alcotest.check_raises "empty"
    (Invalid_argument "Codec.decode_vector_delta: empty") (fun () ->
      ignore (Codec.decode_vector_delta ~base [||]));
  Alcotest.check_raises "dimension mismatch vs base"
    (Invalid_argument "Codec.decode_vector_delta: malformed buffer") (fun () ->
      ignore (Codec.decode_vector_delta ~base [| 4; 0 |]));
  Alcotest.check_raises "negative entry count"
    (Invalid_argument "Codec.decode_vector_delta: malformed buffer") (fun () ->
      ignore (Codec.decode_vector_delta ~base [| 3; -1 |]));
  Alcotest.check_raises "truncated pair list"
    (Invalid_argument "Codec.decode_vector_delta: malformed buffer") (fun () ->
      ignore (Codec.decode_vector_delta ~base [| 3; 1 |]));
  Alcotest.check_raises "padded pair list"
    (Invalid_argument "Codec.decode_vector_delta: malformed buffer") (fun () ->
      ignore (Codec.decode_vector_delta ~base [| 3; 1; 0; 5; 0 |]));
  Alcotest.check_raises "pid out of range"
    (Invalid_argument "Codec.decode_vector_delta: malformed entry") (fun () ->
      ignore (Codec.decode_vector_delta ~base [| 3; 1; 3; 5 |]));
  Alcotest.check_raises "negative pid"
    (Invalid_argument "Codec.decode_vector_delta: malformed entry") (fun () ->
      ignore (Codec.decode_vector_delta ~base [| 3; 1; -1; 5 |]));
  Alcotest.check_raises "negative component"
    (Invalid_argument "Codec.decode_vector_delta: malformed entry") (fun () ->
      ignore (Codec.decode_vector_delta ~base [| 3; 1; 0; -2 |]));
  Alcotest.check_raises "encode dimension mismatch"
    (Invalid_argument "Codec.encode_vector_delta: dimension mismatch")
    (fun () ->
      ignore
        (Codec.encode_vector_delta
           ~since:(Vector_clock.create ~n:2)
           base))

(* Self-framed piggybacks: mode/seq accessors, the adaptive encoder's
   tag choices, and the decoder's defence against out-of-sequence or
   baseless deltas. *)
let test_codec_piggyback () =
  let v = Vector_clock.of_array [| 2; 0; 1; 0; 0; 0; 0; 0 |] in
  (* dense and sparse frames are self-contained: any expected seq decodes *)
  let wd = Codec.encode_piggyback ~mode:Codec.Dense ~seq:7 v in
  Alcotest.(check bool) "dense tag" true (Codec.piggyback_mode_of wd = Codec.Dense);
  Alcotest.(check int) "dense seq" 7 (Codec.piggyback_seq wd);
  let v', s = Codec.decode_piggyback ~expect_seq:99 wd in
  Alcotest.(check bool) "dense roundtrip" true (Vector_clock.equal v v');
  Alcotest.(check int) "dense carried seq" 7 s;
  let ws = Codec.encode_piggyback ~mode:Codec.Sparse ~seq:0 v in
  Alcotest.(check bool) "sparse tag" true
    (Codec.piggyback_mode_of ws = Codec.Sparse);
  let v', _ = Codec.decode_piggyback ~expect_seq:3 ws in
  Alcotest.(check bool) "sparse roundtrip" true (Vector_clock.equal v v');
  (* adaptive: with a near base the delta frame wins and is pinned to
     its seq and base *)
  let since = Vector_clock.of_array [| 1; 0; 1; 0; 0; 0; 0; 0 |] in
  let wdl = Codec.encode_piggyback ~mode:Codec.Delta ~seq:3 ~since v in
  Alcotest.(check bool) "delta tag" true
    (Codec.piggyback_mode_of wdl = Codec.Delta);
  let v', _ = Codec.decode_piggyback ~expect_seq:3 ~base:since wdl in
  Alcotest.(check bool) "delta roundtrip" true (Vector_clock.equal v v');
  (* empty-delta edge: unchanged clock ships a two-word payload *)
  let we = Codec.encode_piggyback ~mode:Codec.Delta ~seq:4 ~since:v v in
  Alcotest.(check bool) "empty delta tag" true
    (Codec.piggyback_mode_of we = Codec.Delta);
  Alcotest.(check int) "empty delta frame" 4 (Array.length we);
  let v', _ = Codec.decode_piggyback ~expect_seq:4 ~base:v we in
  Alcotest.(check bool) "empty delta roundtrip" true (Vector_clock.equal v v');
  (* since-mismatch edge: a base of the wrong dimension cannot be
     diffed against, so the encoder degrades to self-contained *)
  let wm =
    Codec.encode_piggyback ~mode:Codec.Delta ~seq:5
      ~since:(Vector_clock.create ~n:4) v
  in
  Alcotest.(check bool) "mismatched base degrades" true
    (Codec.piggyback_mode_of wm <> Codec.Delta);
  let wn = Codec.encode_piggyback ~mode:Codec.Delta ~seq:5 v in
  Alcotest.(check bool) "no base degrades" true
    (Codec.piggyback_mode_of wn <> Codec.Delta);
  (* rejects *)
  Alcotest.check_raises "negative seq (encode)"
    (Invalid_argument "Codec.encode_piggyback: negative seq") (fun () ->
      ignore (Codec.encode_piggyback ~mode:Codec.Dense ~seq:(-1) v));
  Alcotest.check_raises "truncated frame"
    (Invalid_argument "Codec.decode_piggyback: truncated frame") (fun () ->
      ignore (Codec.decode_piggyback ~expect_seq:0 [| 0 |]));
  Alcotest.check_raises "unknown tag"
    (Invalid_argument "Codec.decode_piggyback: unknown tag") (fun () ->
      ignore (Codec.decode_piggyback ~expect_seq:0 [| 9; 0; 1; 1 |]));
  Alcotest.check_raises "negative seq (decode)"
    (Invalid_argument "Codec.decode_piggyback: negative seq") (fun () ->
      ignore (Codec.decode_piggyback ~expect_seq:0 [| 1; -2; 8; 0 |]));
  Alcotest.check_raises "out-of-sequence delta"
    (Invalid_argument "Codec.decode_piggyback: out-of-sequence delta")
    (fun () ->
      ignore (Codec.decode_piggyback ~expect_seq:4 ~base:since wdl));
  Alcotest.check_raises "delta without base"
    (Invalid_argument "Codec.decode_piggyback: delta without base") (fun () ->
      ignore (Codec.decode_piggyback ~expect_seq:3 wdl))

(* Headers a peer controls must not size an allocation. A sparse
   payload's dimension header costs nothing until pairs arrive (the
   clock is sized by its pair count), and a matrix header too large for
   the buffer is rejected before [n * n] can overflow past the length
   check. *)
let test_codec_untrusted_headers () =
  let huge = 1 lsl 40 in
  let z = Codec.decode_vector_sparse [| huge; 0 |] in
  Alcotest.(check int) "zero clock keeps its dimension" huge
    (Vector_clock.dim z);
  Alcotest.(check bool) "zero clock" true (Vector_clock.is_zero z);
  let z', seq = Codec.decode_piggyback ~expect_seq:0 [| 1; 6; huge; 0 |] in
  Alcotest.(check int) "framed: seq" 6 seq;
  Alcotest.(check bool) "framed: zero clock" true
    (Vector_clock.is_zero z' && Vector_clock.dim z' = huge);
  (* two pairs land in the pairs stage, sized 2 — and grow on demand *)
  let c = Codec.decode_vector_sparse [| huge; 2; 5; 1; huge - 1; 3 |] in
  Alcotest.(check bool) "pairs stage" true (Vector_clock.is_sparse c);
  Alcotest.(check int) "last pid" 3 (Vector_clock.entry c (huge - 1));
  Vector_clock.merge_entry c 9 4;
  Vector_clock.tick c ~me:7;
  Alcotest.(check (list int)) "grown live run" [ 5; 7; 9; huge - 1 ]
    (let ps = ref [] in
     Vector_clock.iter_active c (fun p _ -> ps := p :: !ps);
     List.rev !ps);
  Alcotest.(check int) "sum after growth" 9 (Vector_clock.sum c);
  Alcotest.check_raises "matrix header overflowing n*n"
    (Invalid_argument "Codec.decode_matrix: malformed buffer") (fun () ->
      ignore (Codec.decode_matrix [| 1 lsl 32; 0 |]))

let words_allocated = Test_util.words_allocated

(* One adaptive piggyback encode plus its decode, for an epoch-shaped
   clock against an epoch-shaped cache, allocates the same number of
   words at every [n]: the wire path is O(live entries), not O(n).
   Two shapes: a one-tick advance (a sparse frame) and an unchanged
   clock (an empty delta frame, decoded against the mirror). *)
let test_codec_alloc_flat_in_n () =
  let round_trip ~n ~advance =
    let since = Vector_clock.create ~n in
    Vector_clock.tick since ~me:(n / 2);
    Vector_clock.tick since ~me:(n / 2);
    let v = Vector_clock.copy since in
    if advance then Vector_clock.tick v ~me:(n / 2);
    let base = Vector_clock.copy since in
    let go () =
      let w = Codec.encode_piggyback ~mode:Codec.Delta ~seq:3 ~since v in
      let v', _ = Codec.decode_piggyback ~expect_seq:3 ~base w in
      assert (Vector_clock.equal v v')
    in
    go ();
    words_allocated go
  in
  List.iter
    (fun advance ->
      let at64 = round_trip ~n:64 ~advance in
      List.iter
        (fun n ->
          Alcotest.(check int)
            (Printf.sprintf "words at n=%d = at n=64 (advance=%b)" n advance)
            at64 (round_trip ~n ~advance))
        [ 1024; 4096 ])
    [ true; false ]

(* A snapshot holds exactly the live entries. [record] is the words of
   the clock record itself (fields plus header). *)
let record_words = 1 + Obj.size (Obj.repr (Vector_clock.create ~n:1))

(* An epoch that once held pairs keeps the warm pair arrays (for reuse
   after [reset]); its snapshot leaves them behind: the record alone. *)
let test_snapshot_alloc_epoch () =
  let c = Vector_clock.create ~n:64 in
  Vector_clock.tick c ~me:3;
  Vector_clock.merge_entry c 9 2;
  Alcotest.(check bool) "pairs stage" true (Vector_clock.is_sparse c);
  Vector_clock.reset c;
  Vector_clock.tick c ~me:5;
  Alcotest.(check bool) "epoch again" true (Vector_clock.is_epoch c);
  let go () = ignore (Sys.opaque_identity (Vector_clock.snapshot c)) in
  go ();
  Alcotest.(check int) "epoch snapshot = record" record_words
    (words_allocated go)

(* A sparse clock's snapshot is the record plus its [nactive] live pairs
   (two arrays, each with a header) — not the promotion-threshold
   capacity [copy] carries. *)
let test_snapshot_alloc_sparse () =
  List.iter
    (fun (n, live) ->
      let c = Vector_clock.create ~n in
      for k = 0 to live - 1 do
        Vector_clock.merge_entry c (3 * k) (k + 1)
      done;
      Alcotest.(check bool) "pairs stage" true (Vector_clock.is_sparse c);
      let go () = ignore (Sys.opaque_identity (Vector_clock.snapshot c)) in
      go ();
      Alcotest.(check int)
        (Printf.sprintf "n=%d, %d live pairs" n live)
        (record_words + (2 * (live + 1)))
        (words_allocated go))
    [ (64, 2); (64, 8); (1024, 3); (1024, 100) ]

(* Mutating the source after [snapshot] leaves the snapshot alone, in
   every stage; the snapshot stays a valid clock that [copy] (and even
   in-place updates) can grow from. *)
let test_snapshot_frozen_all_stages () =
  let n = 64 in
  let stage_of name k =
    let c = Vector_clock.create ~n in
    for p = 0 to k - 1 do
      Vector_clock.merge_entry c (2 * p) (p + 1)
    done;
    (name, c)
  in
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) (name ^ ": stage") true
        (match name with
        | "epoch" -> Vector_clock.is_epoch c
        | "pairs" -> Vector_clock.is_sparse c
        | _ -> not (Vector_clock.is_epoch c || Vector_clock.is_sparse c));
      let before = Vector_clock.to_array c in
      let s = Vector_clock.snapshot c in
      Vector_clock.tick c ~me:1;
      Vector_clock.tick c ~me:0;
      Vector_clock.merge_into ~into:c (Vector_clock.of_array (Array.make n 7));
      Alcotest.(check (array int)) (name ^ ": snapshot frozen") before
        (Vector_clock.to_array s);
      let grown = Vector_clock.copy s in
      for p = 0 to n - 1 do
        Vector_clock.merge_entry grown p 1
      done;
      Alcotest.(check (array int)) (name ^ ": snapshot unchanged by copy")
        before (Vector_clock.to_array s);
      Alcotest.(check int) (name ^ ": copy grows to dense") n
        (Vector_clock.active_entries grown))
    [
      stage_of "epoch" 1;
      stage_of "pairs" 5;
      stage_of "dense" 20;
      ("dense policy", Vector_clock.of_array ~dense:true (Array.init n Fun.id));
    ]

let qsuite = List.map QCheck_alcotest.to_alcotest
  [
    prop_compare_antisymmetric;
    prop_merge_upper_bound;
    prop_merge_least;
    prop_merge_commutative_idempotent;
    prop_tick_strictly_after;
    prop_leq_transitive;
    prop_adaptive_equals_dense;
    prop_sparse_equals_dense;
    prop_representation_blind_compare;
    prop_words_roundtrip;
    prop_slice_roundtrip_mid_buffer;
    prop_merge_words_equals_merge_into;
    prop_codec_roundtrip;
    prop_delta_codec_roundtrip;
    prop_varint_codec_roundtrip;
    prop_varint_at_least_one_byte_per_entry;
  ]

let () =
  Alcotest.run "clocks"
    [
      ( "order",
        [
          Alcotest.test_case "flip" `Quick test_order_flip;
          Alcotest.test_case "predicates" `Quick test_order_predicates;
        ] );
      ( "lamport",
        [
          Alcotest.test_case "tick" `Quick test_lamport_tick;
          Alcotest.test_case "observe" `Quick test_lamport_observe;
          Alcotest.test_case "copy" `Quick test_lamport_copy_independent;
          Alcotest.test_case "compare" `Quick test_lamport_compare_total;
        ] );
      ( "vector",
        [
          Alcotest.test_case "create zero" `Quick test_vc_create_zero;
          Alcotest.test_case "create invalid" `Quick test_vc_create_invalid;
          Alcotest.test_case "of_array negative" `Quick test_vc_of_array_negative;
          Alcotest.test_case "tick" `Quick test_vc_tick;
          Alcotest.test_case "compare cases" `Quick test_vc_compare_cases;
          Alcotest.test_case "compare mismatch" `Quick test_vc_compare_dim_mismatch;
          Alcotest.test_case "merge" `Quick test_vc_merge;
          Alcotest.test_case "merge_into" `Quick test_vc_merge_into;
          Alcotest.test_case "snapshot" `Quick test_vc_snapshot_independent;
          Alcotest.test_case "snapshot frozen, every stage" `Quick
            test_snapshot_frozen_all_stages;
          Alcotest.test_case "snapshot alloc: epoch = record" `Quick
            test_snapshot_alloc_epoch;
          Alcotest.test_case "snapshot alloc: sparse = live pairs" `Quick
            test_snapshot_alloc_sparse;
          Alcotest.test_case "sum/entry/size" `Quick test_vc_sum_entry;
        ] );
      ( "vector-epoch",
        [
          Alcotest.test_case "lifecycle" `Quick test_epoch_lifecycle;
          Alcotest.test_case "dense pinned" `Quick test_epoch_dense_pinned;
          Alcotest.test_case "reset re-epochs" `Quick test_epoch_reset_reepochs;
          Alcotest.test_case "of_array" `Quick test_epoch_of_array;
          Alcotest.test_case "merge transitions" `Quick
            test_epoch_merge_transitions;
          Alcotest.test_case "compare cases" `Quick test_epoch_compare_cases;
          Alcotest.test_case "words roundtrip" `Quick test_epoch_words_roundtrip;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "lifecycle + promotion" `Quick
            test_sparse_lifecycle;
          Alcotest.test_case "merge scan" `Quick test_sparse_merge_scan;
          Alcotest.test_case "compare cases" `Quick test_sparse_compare_cases;
          Alcotest.test_case "pairs only from n = 11" `Quick test_pairs_rule;
        ] );
      ("vector-properties", qsuite);
      ( "matrix",
        [
          Alcotest.test_case "create" `Quick test_mc_create;
          Alcotest.test_case "tick" `Quick test_mc_tick;
          Alcotest.test_case "observe" `Quick test_mc_observe;
          Alcotest.test_case "min_known" `Quick test_mc_min_known;
          Alcotest.test_case "codec roundtrip" `Quick test_mc_codec_roundtrip;
          Alcotest.test_case "of_rows invalid" `Quick test_mc_of_rows_invalid;
          Alcotest.test_case "size_words" `Quick test_mc_size_words;
        ] );
      ( "codec",
        [
          Alcotest.test_case "malformed" `Quick test_codec_malformed;
          Alcotest.test_case "varint malformed" `Quick test_codec_varint_malformed;
          Alcotest.test_case "varint large" `Quick test_codec_varint_large_values;
          Alcotest.test_case "matrix malformed" `Quick test_codec_matrix_malformed;
          Alcotest.test_case "sizes" `Quick test_codec_sizes;
          Alcotest.test_case "delta malformed" `Quick test_codec_delta_malformed;
          Alcotest.test_case "piggyback" `Quick test_codec_piggyback;
          Alcotest.test_case "untrusted headers" `Quick
            test_codec_untrusted_headers;
          Alcotest.test_case "wire allocation flat in n" `Quick
            test_codec_alloc_flat_in_n;
        ] );
    ]
