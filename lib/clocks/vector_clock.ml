(* The representation is adaptive: a clock that has only ever been
   advanced by a single process is kept as a compact {e epoch} — the
   FastTrack-style [(pid, count)] pair, denoting the vector that is
   [count] at [pid] and 0 elsewhere — and is promoted on the first
   cross-process merge or tick.
   The common single-writer access then costs O(1) and allocates nothing,
   while the abstract value (and hence every detection verdict) is
   identical to the dense representation.

   The clock's [rep] policy fixes the forms it may take:
   - [Sparse] (the adaptive policy): epoch -> sorted parallel
     [(pid, tick)] arrays holding only the nonzero components -> a dense
     [int array] once more than [threshold] entries are live.
     Compare/merge on two sparse operands is a merge scan over the sorted
     pids — O(active), not O(n) — which is what lets detection scale past
     the paper's ~10 processes (§5.1) without shrinking the worst-case
     clock below Charron-Bost's n entries (§4.3). The pairs stage is
     skipped (threshold 0: epoch -> dense) where its two arrays would
     not be smaller than the dense one, i.e. for n <= 10;
   - [Dense]: a dense array from birth — the always-vector ablation and
     the test oracle.

   Mode encoding: [vec != no_vec] means dense; otherwise [sparse_on]
   separates sparse from epoch. The sparse key/value arrays are retained
   across [reset] so the detector's scratch clocks stay allocation-free
   once warmed up. The canonical zero epoch is [count = 0] with
   [pid = 0]. Sparse values are always positive: zero components are
   simply absent. *)

type rep = Dense | Sparse

type t = {
  mutable pid : int;  (* epoch owner; meaningful only in epoch mode *)
  mutable count : int;  (* epoch count; 0 = the zero clock *)
  dim : int;
  mutable vec : int array;  (* == no_vec unless in dense mode *)
  mutable sparse_on : bool;  (* sparse mode flag (when not dense) *)
  mutable nactive : int;  (* live entries in keys/vals *)
  mutable keys : int array;  (* sorted pids; == no_vec until allocated *)
  mutable vals : int array;  (* ticks, parallel to keys; all > 0 *)
  threshold : int;  (* sparse -> dense promotion bound; 0 = no pairs *)
  rep : rep;
}

let no_vec : int array = [||]

(* More than [max 4 (n/8)] active writers and the sorted-pair scans stop
   paying for themselves against a flat array — promote. Exposed so the
   promotion-boundary tests can aim exactly at it. *)
let sparse_threshold ~n = max 4 (n / 8)

(* The pairs stage pays only where its two arrays, [2 (threshold + 1)]
   words, are smaller than the dense array's [n] — from n = 11 on. *)
let pairs_threshold rep ~n =
  let k = sparse_threshold ~n in
  if rep = Sparse && 2 * (k + 1) < n then k else 0

let is_dense t = t.vec != no_vec

let is_sparse t = t.vec == no_vec && t.sparse_on

let is_epoch t = t.vec == no_vec && not t.sparse_on

let rep t = t.rep

let create_rep rep ~n =
  if n <= 0 then invalid_arg "Vector_clock.create: dimension must be positive";
  {
    pid = 0;
    count = 0;
    dim = n;
    vec = (if rep = Dense then Array.make n 0 else no_vec);
    sparse_on = false;
    nactive = 0;
    keys = no_vec;
    vals = no_vec;
    threshold = pairs_threshold rep ~n;
    rep;
  }

let create ~n = create_rep Sparse ~n

let create_dense ~n = create_rep Dense ~n

let dim t = t.dim

(* ---------- sparse plumbing ---------- *)

(* Index of [p] in the sorted key array, or [-(insertion point) - 1]. *)
let sparse_find t p =
  let lo = ref 0 and hi = ref t.nactive in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.keys.(mid) < p then lo := mid + 1 else hi := mid
  done;
  if !lo < t.nactive && t.keys.(!lo) = p then !lo else - !lo - 1

let sparse_get t p =
  let i = sparse_find t p in
  if i >= 0 then t.vals.(i) else 0

(* Room for [need] live entries. Capacity is bounded by the promotion
   threshold, so a clock's first allocation takes it all at once and
   (retained across [reset]) serves the clock's whole lifetime. Only
   clocks built from wire pairs ({!of_pairs}) start exact-sized — a
   decoder must not allocate what an untrusted dimension header asks
   for — and grow by doubling up to the same bound. *)
let sparse_reserve t need =
  let len = Array.length t.keys in
  if len < need then begin
    let cap =
      if len = 0 then t.threshold + 1
      else min (t.threshold + 1) (max need (2 * len))
    in
    let keys = Array.make cap 0 and vals = Array.make cap 0 in
    Array.blit t.keys 0 keys 0 t.nactive;
    Array.blit t.vals 0 vals 0 t.nactive;
    t.keys <- keys;
    t.vals <- vals
  end

(* ---------- promotions ---------- *)

(* Sparse/epoch -> dense. One-way except through [reset] / [load_words],
   which re-derive the representation. *)
let promote t =
  if not (is_dense t) then begin
    let v = Array.make t.dim 0 in
    if t.sparse_on then
      for i = 0 to t.nactive - 1 do
        v.(t.keys.(i)) <- t.vals.(i)
      done
    else if t.count > 0 then v.(t.pid) <- t.count;
    t.sparse_on <- false;
    t.nactive <- 0;
    t.vec <- v
  end

(* Epoch -> sparse pairs: carry the epoch entry over. *)
let promote_sparse t =
  sparse_reserve t 1;
  t.nactive <- 0;
  if t.count > 0 then begin
    t.keys.(0) <- t.pid;
    t.vals.(0) <- t.count;
    t.nactive <- 1
  end;
  t.sparse_on <- true

(* Where a cross-process epoch promotion lands: the pairs stage when
   this clock has one. *)
let promote_cross t = if t.threshold > 0 then promote_sparse t else promote t

(* Set component [p] to [v] ([> 0], at least the current value) in sparse
   mode, inserting and dense-promoting past the threshold as needed. *)
let sparse_set t p v =
  let i = sparse_find t p in
  if i >= 0 then t.vals.(i) <- v
  else if t.nactive >= t.threshold then begin
    promote t;
    t.vec.(p) <- v
  end
  else begin
    let at = -i - 1 in
    sparse_reserve t (t.nactive + 1);
    Array.blit t.keys at t.keys (at + 1) (t.nactive - at);
    Array.blit t.vals at t.vals (at + 1) (t.nactive - at);
    t.keys.(at) <- p;
    t.vals.(at) <- v;
    t.nactive <- t.nactive + 1
  end

(* Componentwise max against a single [(p, v)] entry, [v > 0] — the
   building block for epoch sources and word-slice merges. *)
let rec bump t p v =
  if is_dense t then begin
    if v > t.vec.(p) then t.vec.(p) <- v
  end
  else if is_sparse t then begin
    let i = sparse_find t p in
    if i >= 0 then begin
      if v > t.vals.(i) then t.vals.(i) <- v
    end
    else if t.nactive >= t.threshold then begin
      promote t;
      if v > t.vec.(p) then t.vec.(p) <- v
    end
    else begin
      let at = -i - 1 in
      sparse_reserve t (t.nactive + 1);
      Array.blit t.keys at t.keys (at + 1) (t.nactive - at);
      Array.blit t.vals at t.vals (at + 1) (t.nactive - at);
      t.keys.(at) <- p;
      t.vals.(at) <- v;
      t.nactive <- t.nactive + 1
    end
  end
  else if t.count = 0 then begin
    t.pid <- p;
    t.count <- v
  end
  else if t.pid = p then begin
    if v > t.count then t.count <- v
  end
  else begin
    promote_cross t;
    bump t p v
  end

let copy t =
  {
    pid = t.pid;
    count = t.count;
    dim = t.dim;
    vec = (if is_dense t then Array.copy t.vec else no_vec);
    sparse_on = t.sparse_on;
    nactive = t.nactive;
    keys = (if t.keys == no_vec then no_vec else Array.copy t.keys);
    vals = (if t.vals == no_vec then no_vec else Array.copy t.vals);
    threshold = t.threshold;
    rep = t.rep;
  }

(* Adopt the compact representation [a] warrants under rep [rep]:
   <=1 nonzero -> epoch; <= threshold nonzeros -> sorted pairs;
   otherwise dense. *)
let of_array_rep rep a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Vector_clock.of_array: empty";
  let nonzeros = ref 0 and last = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) < 0 then invalid_arg "Vector_clock.of_array: negative entry";
    if a.(i) <> 0 then begin
      incr nonzeros;
      last := i
    end
  done;
  let t = create_rep rep ~n in
  if rep <> Dense && !nonzeros <= 1 then begin
    if !nonzeros = 1 then begin
      t.pid <- !last;
      t.count <- a.(!last)
    end;
    t
  end
  else if !nonzeros <= t.threshold then begin
    sparse_reserve t !nonzeros;
    let k = ref 0 in
    for i = 0 to n - 1 do
      if a.(i) <> 0 then begin
        t.keys.(!k) <- i;
        t.vals.(!k) <- a.(i);
        incr k
      end
    done;
    t.nactive <- !k;
    t.sparse_on <- true;
    t
  end
  else begin
    t.vec <- Array.copy a;
    t
  end

let of_array ?(dense = false) a =
  of_array_rep (if dense then Dense else Sparse) a

let entry c i =
  if i < 0 || i >= c.dim then invalid_arg "Vector_clock.entry";
  if is_dense c then c.vec.(i)
  else if is_sparse c then sparse_get c i
  else if i = c.pid then c.count
  else 0

let is_zero c =
  if is_dense c then Array.for_all (fun x -> x = 0) c.vec
  else if is_sparse c then c.nactive = 0
  else c.count = 0

(* Nonzero components currently materialized — the quantity the sparse
   scans are linear in (introspection for tests and benchmarks). *)
let active_entries c =
  if is_dense c then
    Array.fold_left (fun acc x -> if x <> 0 then acc + 1 else acc) 0 c.vec
  else if is_sparse c then c.nactive
  else if c.count > 0 then 1
  else 0

let tick c ~me =
  if me < 0 || me >= c.dim then invalid_arg "Vector_clock.tick";
  if is_dense c then c.vec.(me) <- c.vec.(me) + 1
  else if is_sparse c then begin
    let i = sparse_find c me in
    if i >= 0 then c.vals.(i) <- c.vals.(i) + 1 else sparse_set c me 1
  end
  else if c.count = 0 then begin
    c.pid <- me;
    c.count <- 1
  end
  else if c.pid = me then c.count <- c.count + 1
  else begin
    promote_cross c;
    if is_dense c then c.vec.(me) <- c.vec.(me) + 1 else sparse_set c me 1
  end

let check_dim a b name =
  if a.dim <> b.dim then
    invalid_arg (Printf.sprintf "Vector_clock.%s: dimension mismatch" name)

(* Merge a sparse [src] into a sparse [into] by a single backwards merge
   scan over the two sorted key runs — O(active + active), in place, no
   allocation. The union size is counted first; past the threshold the
   destination promotes to dense instead. *)
let sparse_merge_sparse ~into src =
  let an = into.nactive and bn = src.nactive in
  (* union cardinality *)
  let union = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < an || !j < bn do
    (if !j >= bn then incr i
     else if !i >= an then incr j
     else
       let ka = into.keys.(!i) and kb = src.keys.(!j) in
       if ka < kb then incr i
       else if kb < ka then incr j
       else begin
         incr i;
         incr j
       end);
    incr union
  done;
  if !union > into.threshold then begin
    promote into;
    for k = 0 to bn - 1 do
      let p = src.keys.(k) and v = src.vals.(k) in
      if v > into.vec.(p) then into.vec.(p) <- v
    done
  end
  else begin
    sparse_reserve into !union;
    (* fill from the back: reading positions never overtake writes *)
    let i = ref (an - 1) and j = ref (bn - 1) and k = ref (!union - 1) in
    while !j >= 0 do
      if !i >= 0 && into.keys.(!i) > src.keys.(!j) then begin
        into.keys.(!k) <- into.keys.(!i);
        into.vals.(!k) <- into.vals.(!i);
        decr i
      end
      else if !i >= 0 && into.keys.(!i) = src.keys.(!j) then begin
        into.keys.(!k) <- into.keys.(!i);
        into.vals.(!k) <- max into.vals.(!i) src.vals.(!j);
        decr i;
        decr j
      end
      else begin
        into.keys.(!k) <- src.keys.(!j);
        into.vals.(!k) <- src.vals.(!j);
        decr j
      end;
      decr k
    done;
    into.nactive <- !union
  end

let merge_into ~into src =
  check_dim into src "merge_into";
  if is_epoch src then begin
    if src.count > 0 then bump into src.pid src.count
  end
  else if is_sparse src then begin
    if is_dense into then
      for k = 0 to src.nactive - 1 do
        let p = src.keys.(k) and v = src.vals.(k) in
        if v > into.vec.(p) then into.vec.(p) <- v
      done
    else if is_sparse into then sparse_merge_sparse ~into src
    else begin
      (* epoch destination: adopt the policy's cross-process shape first *)
      promote_cross into;
      if is_dense into then
        for k = 0 to src.nactive - 1 do
          let p = src.keys.(k) and v = src.vals.(k) in
          if v > into.vec.(p) then into.vec.(p) <- v
        done
      else sparse_merge_sparse ~into src
    end
  end
  else begin
    (* dense source: the destination sees up to [dim] live components *)
    promote into;
    let v = into.vec and s = src.vec in
    for i = 0 to into.dim - 1 do
      if s.(i) > v.(i) then v.(i) <- s.(i)
    done
  end

let merge a b =
  check_dim a b "merge";
  let r = copy a in
  merge_into ~into:r b;
  r

let order_of ~some_lt ~some_gt : Order.t =
  match (some_lt, some_gt) with
  | false, false -> Order.Equal
  | true, false -> Order.Before
  | false, true -> Order.After
  | true, true -> Order.Concurrent

(* [a] is the epoch [count] at [pid] (count > 0); [b] is sparse. [a]
   exceeds [b] only at [pid]; [a] is below [b] wherever [b] holds any
   other positive entry. O(log active). *)
let compare_epoch_sparse ~pid ~count b =
  let bv = sparse_get b pid in
  let some_gt = count > bv in
  let others = b.nactive - if bv > 0 then 1 else 0 in
  let some_lt = count < bv || others > 0 in
  order_of ~some_lt ~some_gt

(* Merge scan over two sorted runs with the Concurrent early exit:
   a key only one side holds is a strict inequality on that side. *)
let compare_sparse_sparse a b =
  let an = a.nactive and bn = b.nactive in
  let some_lt = ref false and some_gt = ref false in
  let i = ref 0 and j = ref 0 in
  while (!i < an || !j < bn) && not (!some_lt && !some_gt) do
    if !j >= bn then begin
      some_gt := true;
      incr i
    end
    else if !i >= an then begin
      some_lt := true;
      incr j
    end
    else
      let ka = a.keys.(!i) and kb = b.keys.(!j) in
      if ka < kb then begin
        some_gt := true;
        incr i
      end
      else if kb < ka then begin
        some_lt := true;
        incr j
      end
      else begin
        let x = a.vals.(!i) and y = b.vals.(!j) in
        if x < y then some_lt := true else if x > y then some_gt := true;
        incr i;
        incr j
      end
  done;
  order_of ~some_lt:!some_lt ~some_gt:!some_gt

(* Sparse [a] against dense [b]: walk the dense array once, keeping a
   cursor into [a]'s sorted keys. *)
let compare_sparse_dense a b =
  let some_lt = ref false and some_gt = ref false in
  let i = ref 0 in
  let d = ref 0 in
  while !d < a.dim && not (!some_lt && !some_gt) do
    let av =
      if !i < a.nactive && a.keys.(!i) = !d then begin
        let v = a.vals.(!i) in
        incr i;
        v
      end
      else 0
    in
    let bv = b.vec.(!d) in
    if av < bv then some_lt := true else if av > bv then some_gt := true;
    incr d
  done;
  order_of ~some_lt:!some_lt ~some_gt:!some_gt

(* Algorithm 3: componentwise comparison, decided in a single pass by
   tracking whether some component of [a] is below [b] and some above —
   with an early exit as soon as both are set (the verdict is already
   [Concurrent]), O(1) decisions whenever an epoch operand allows, and
   O(active) merge scans on sparse operands. *)
let compare a b : Order.t =
  check_dim a b "compare";
  if is_epoch a then
    if is_epoch b then
      if a.count = 0 && b.count = 0 then Order.Equal
      else if a.count = 0 then Order.Before
      else if b.count = 0 then Order.After
      else if a.pid = b.pid then
        if a.count = b.count then Order.Equal
        else if a.count < b.count then Order.Before
        else Order.After
      else Order.Concurrent
    else if a.count = 0 then if is_zero b then Order.Equal else Order.Before
    else if is_sparse b then compare_epoch_sparse ~pid:a.pid ~count:a.count b
    else begin
      (* [a] is [a.count] at [a.pid] and 0 elsewhere: [a] exceeds [b] only
         at [a.pid]; [a] is below [b] wherever [b] is nonzero elsewhere. *)
      let v = b.vec in
      let some_gt = a.count > v.(a.pid) in
      let some_lt = ref (a.count < v.(a.pid)) in
      let i = ref 0 in
      while (not !some_lt) && !i < b.dim do
        if !i <> a.pid && v.(!i) > 0 then some_lt := true;
        incr i
      done;
      order_of ~some_lt:!some_lt ~some_gt
    end
  else if is_epoch b then
    Order.flip
      (if b.count = 0 then if is_zero a then Order.Equal else Order.Before
       else if is_sparse a then
         compare_epoch_sparse ~pid:b.pid ~count:b.count a
       else begin
         let v = a.vec in
         let some_gt = b.count > v.(b.pid) in
         let some_lt = ref (b.count < v.(b.pid)) in
         let i = ref 0 in
         while (not !some_lt) && !i < a.dim do
           if !i <> b.pid && v.(!i) > 0 then some_lt := true;
           incr i
         done;
         order_of ~some_lt:!some_lt ~some_gt
       end)
  else if is_sparse a then
    if is_sparse b then compare_sparse_sparse a b else compare_sparse_dense a b
  else if is_sparse b then Order.flip (compare_sparse_dense b a)
  else begin
    let va = a.vec and vb = b.vec in
    let some_lt = ref false and some_gt = ref false in
    let i = ref 0 in
    while !i < a.dim && not (!some_lt && !some_gt) do
      let x = va.(!i) and y = vb.(!i) in
      if x < y then some_lt := true else if x > y then some_gt := true;
      incr i
    done;
    order_of ~some_lt:!some_lt ~some_gt:!some_gt
  end

let leq a b =
  check_dim a b "leq";
  if is_epoch a then
    if a.count = 0 then true
    else if is_epoch b then a.pid = b.pid && a.count <= b.count
    else if is_sparse b then a.count <= sparse_get b a.pid
    else a.count <= b.vec.(a.pid)
  else if is_sparse a then begin
    (* every live component of [a] must be covered by [b]: O(active) *)
    let ok = ref true and i = ref 0 in
    while !ok && !i < a.nactive do
      if a.vals.(!i) > entry b a.keys.(!i) then ok := false;
      incr i
    done;
    !ok
  end
  else
    match compare a b with
    | Order.Equal | Order.Before -> true
    | Order.After | Order.Concurrent -> false

let concurrent a b = Order.concurrent (compare a b)

let equal a b = compare a b = Order.Equal

let sum c =
  if is_dense c then Array.fold_left ( + ) 0 c.vec
  else if is_sparse c then begin
    let acc = ref 0 in
    for i = 0 to c.nactive - 1 do
      acc := !acc + c.vals.(i)
    done;
    !acc
  end
  else c.count

(* Wire/storage accounting is representation-independent: a clock always
   costs [dim] words on the wire and in the §5.1 storage model. *)
let size_words t = t.dim

(* Unlike [copy], which keeps a sparse clock's full [threshold + 1]
   capacity (and an epoch's retained pair arrays) so the result can grow
   in place, a snapshot holds exactly the live entries: the record alone
   for an epoch, [nactive] pairs for a sparse clock, the array for a
   dense one. Still a valid clock should someone mutate it —
   [sparse_reserve] regrows short arrays — but nobody is meant to. *)
let snapshot t =
  let live = if t.sparse_on then t.nactive else 0 in
  {
    t with
    vec = (if is_dense t then Array.copy t.vec else no_vec);
    keys = (if live = 0 then no_vec else Array.sub t.keys 0 live);
    vals = (if live = 0 then no_vec else Array.sub t.vals 0 live);
  }

let reset t =
  match t.rep with
  | Dense -> Array.fill t.vec 0 t.dim 0
  | Sparse ->
      (* keys/vals keep their capacity: a warmed-up scratch clock never
         allocates again *)
      t.pid <- 0;
      t.count <- 0;
      t.vec <- no_vec;
      t.sparse_on <- false;
      t.nactive <- 0

let check_slice t w off name =
  if off < 0 || off + t.dim > Array.length w then
    invalid_arg (Printf.sprintf "Vector_clock.%s: slice out of bounds" name)

let load_words t w ~off =
  check_slice t w off "load_words";
  let nonzeros = ref 0 and last = ref 0 in
  for i = 0 to t.dim - 1 do
    let x = w.(off + i) in
    if x < 0 then invalid_arg "Vector_clock.load_words: negative entry";
    if x <> 0 then begin
      incr nonzeros;
      last := i
    end
  done;
  if t.rep <> Dense && !nonzeros <= 1 then begin
    t.vec <- no_vec;
    t.sparse_on <- false;
    t.nactive <- 0;
    t.pid <- (if !nonzeros = 1 then !last else 0);
    t.count <- (if !nonzeros = 1 then w.(off + !last) else 0)
  end
  else if !nonzeros <= t.threshold then begin
    t.vec <- no_vec;
    t.sparse_on <- false;
    t.nactive <- 0;
    sparse_reserve t !nonzeros;
    let k = ref 0 in
    for i = 0 to t.dim - 1 do
      let x = w.(off + i) in
      if x <> 0 then begin
        t.keys.(!k) <- i;
        t.vals.(!k) <- x;
        incr k
      end
    done;
    t.nactive <- !k;
    t.sparse_on <- true
  end
  else begin
    if not (is_dense t) then begin
      t.sparse_on <- false;
      t.nactive <- 0;
      t.vec <- Array.make t.dim 0
    end;
    Array.blit w off t.vec 0 t.dim
  end

let store_words t w ~off =
  check_slice t w off "store_words";
  if is_dense t then Array.blit t.vec 0 w off t.dim
  else begin
    Array.fill w off t.dim 0;
    if is_sparse t then
      for i = 0 to t.nactive - 1 do
        w.(off + t.keys.(i)) <- t.vals.(i)
      done
    else if t.count > 0 then w.(off + t.pid) <- t.count
  end

(* O(n + active), not an [entry] lookup per component: a sparse clock's
   lookups are binary searches. *)
let to_array t =
  let a = Array.make t.dim 0 in
  store_words t a ~off:0;
  a

let merge_entry c i x =
  if i < 0 || i >= c.dim || x < 0 then invalid_arg "Vector_clock.merge_entry";
  if x > 0 then bump c i x

(* Live components in ascending pid order: O(active) for epoch and
   sparse clocks, O(dim) for dense ones. *)
let iter_active t f =
  if is_dense t then Array.iteri (fun p x -> if x <> 0 then f p x) t.vec
  else if t.sparse_on then
    for i = 0 to t.nactive - 1 do
      f t.keys.(i) t.vals.(i)
    done
  else if t.count > 0 then f t.pid t.count

(* The ascending live run of a non-dense clock; an epoch is a run of at
   most one entry. *)
let run_len t = if t.sparse_on then t.nactive else if t.count > 0 then 1 else 0

let run_key t i = if t.sparse_on then t.keys.(i) else t.pid

let run_val t i = if t.sparse_on then t.vals.(i) else t.count

(* Component [p] of [t] during an ascending walk, [c] the cursor into a
   non-dense clock's run. *)
let walk_get t c p =
  if is_dense t then t.vec.(p)
  else if !c < run_len t && run_key t !c = p then begin
    let x = run_val t !c in
    incr c;
    x
  end
  else 0

(* Every component where [v] differs from [since], ascending, with [v]'s
   value (0 where only [since] is live): a merge scan over the two live
   runs, O(active + active); one O(dim) walk when an operand is dense. *)
let iter_diff ~since v f =
  check_dim since v "iter_diff";
  if is_dense v || is_dense since then begin
    let ci = ref 0 and cj = ref 0 in
    for p = 0 to v.dim - 1 do
      let x = walk_get v ci p in
      if x <> walk_get since cj p then f p x
    done
  end
  else begin
    let vn = run_len v and sn = run_len since in
    let i = ref 0 and j = ref 0 in
    while !i < vn || !j < sn do
      if !j >= sn || (!i < vn && run_key v !i < run_key since !j) then begin
        f (run_key v !i) (run_val v !i);
        incr i
      end
      else if !i >= vn || run_key since !j < run_key v !i then begin
        f (run_key since !j) 0;
        incr j
      end
      else begin
        let x = run_val v !i in
        if x <> run_val since !j then f (run_key v !i) x;
        incr i;
        incr j
      end
    done
  end

(* O(count) unless the result is dense (more than [threshold] pairs,
   i.e. O(n) = O(count)): the pairs array is sized to [count], never to
   the dimension, so a huge [n] costs nothing until entries arrive. *)
let of_pairs ~n w ~off ~count =
  if n <= 0 then invalid_arg "Vector_clock.of_pairs: dimension must be positive";
  if off < 0 || off > Array.length w || count < 0
     || count > (Array.length w - off) / 2
  then invalid_arg "Vector_clock.of_pairs: slice out of bounds";
  let prev = ref (-1) in
  for j = 0 to count - 1 do
    let p = w.(off + (2 * j)) and x = w.(off + (2 * j) + 1) in
    if p <= !prev || p >= n || x <= 0 then
      invalid_arg "Vector_clock.of_pairs: malformed pair";
    prev := p
  done;
  let t = create ~n in
  if count = 1 then begin
    t.pid <- w.(off);
    t.count <- w.(off + 1)
  end
  else if count > 1 && count <= t.threshold then begin
    t.keys <- Array.make count 0;
    t.vals <- Array.make count 0;
    for j = 0 to count - 1 do
      t.keys.(j) <- w.(off + (2 * j));
      t.vals.(j) <- w.(off + (2 * j) + 1)
    done;
    t.nactive <- count;
    t.sparse_on <- true
  end
  else if count > 1 then begin
    t.vec <- Array.make n 0;
    for j = 0 to count - 1 do
      t.vec.(w.(off + (2 * j))) <- w.(off + (2 * j) + 1)
    done
  end;
  t

let merge_words ~into w ~off =
  check_slice into w off "merge_words";
  let nonzeros = ref 0 and last = ref 0 in
  for i = 0 to into.dim - 1 do
    let x = w.(off + i) in
    if x < 0 then invalid_arg "Vector_clock.merge_words: negative entry";
    if x <> 0 then begin
      incr nonzeros;
      last := i
    end
  done;
  if !nonzeros = 0 then ()
  else if !nonzeros = 1 then bump into !last w.(off + !last)
  else if is_dense into || !nonzeros > into.threshold then begin
    promote into;
    let v = into.vec in
    for i = 0 to into.dim - 1 do
      if w.(off + i) > v.(i) then v.(i) <- w.(off + i)
    done
  end
  else
    (* stays within the pairs budget: bump each nonzero component *)
    for i = 0 to into.dim - 1 do
      if w.(off + i) > 0 then bump into i w.(off + i)
    done

let pp ppf c =
  Format.pp_print_char ppf '<';
  for i = 0 to c.dim - 1 do
    if i > 0 then Format.pp_print_char ppf ',';
    Format.pp_print_int ppf (entry c i)
  done;
  Format.pp_print_char ppf '>'

let to_string c = Format.asprintf "%a" pp c
