type wire = int array

let word_bytes = 8

let bytes_of_words w = w * word_bytes

(* Every encoder sizes its buffer arithmetically and fills it in place,
   and every decoder reads its payload at an offset: the framed
   piggyback below never builds a candidate it does not ship, nor
   copies a payload in or out of its frame. *)

let fill_dense w off v =
  w.(off) <- Vector_clock.dim v;
  Vector_clock.store_words v w ~off:(off + 1)

let encode_vector v =
  let w = Array.make (Vector_clock.dim v + 1) 0 in
  fill_dense w 0 v;
  w

let decode_vector_at w off =
  let len = Array.length w - off in
  if len = 0 then invalid_arg "Codec.decode_vector: empty buffer";
  let n = w.(off) in
  if n <= 0 || len <> n + 1 then
    invalid_arg "Codec.decode_vector: malformed buffer";
  Vector_clock.of_array (Array.sub w (off + 1) n)

let decode_vector w = decode_vector_at w 0

(* A [n; count; (pid, value)...] payload filled from an ascending
   iterator — the shape of both the sparse and the delta encodings. *)
let fill_pairs w off ~n ~count iter =
  w.(off) <- n;
  w.(off + 1) <- count;
  let slot = ref (off + 2) in
  iter (fun p x ->
      w.(!slot) <- p;
      w.(!slot + 1) <- x;
      slot := !slot + 2)

(* Sparse encoding: dimension and pair-count headers, then the nonzero
   components as strictly ascending (pid, tick) pairs — [2k + 2] words
   for [k] live components, beating the dense [n + 1] words whenever
   fewer than half the processes have touched the clock. The decoder
   rejects truncated or padded buffers, out-of-range or unsorted pids,
   and non-positive ticks, and sizes the clock by [k], never by the
   untrusted dimension header. *)
let fill_sparse w off v ~k =
  fill_pairs w off ~n:(Vector_clock.dim v) ~count:k (Vector_clock.iter_active v)

let encode_vector_sparse v =
  let k = Vector_clock.active_entries v in
  let w = Array.make (2 + (2 * k)) 0 in
  fill_sparse w 0 v ~k;
  w

let decode_vector_sparse_at w off =
  let len = Array.length w - off in
  if len < 2 then invalid_arg "Codec.decode_vector_sparse: truncated buffer";
  let n = w.(off) and k = w.(off + 1) in
  if n <= 0 || k < 0 || k > n then
    invalid_arg "Codec.decode_vector_sparse: malformed header";
  if len < 2 + (2 * k) then
    invalid_arg "Codec.decode_vector_sparse: truncated buffer";
  if len > 2 + (2 * k) then
    invalid_arg "Codec.decode_vector_sparse: trailing words";
  let prev = ref (-1) in
  for j = 0 to k - 1 do
    let pid = w.(off + 2 + (2 * j)) and tick = w.(off + 3 + (2 * j)) in
    if pid <= !prev || pid >= n then
      invalid_arg "Codec.decode_vector_sparse: pids not ascending in range";
    if tick <= 0 then
      invalid_arg "Codec.decode_vector_sparse: non-positive tick";
    prev := pid
  done;
  Vector_clock.of_pairs ~n w ~off:(off + 2) ~count:k

let decode_vector_sparse w = decode_vector_sparse_at w 0

let encode_matrix m =
  let n = Matrix_clock.dim m in
  let w = Array.make ((n * n) + 2) 0 in
  w.(0) <- n;
  w.(1) <- Matrix_clock.owner m;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      w.(2 + (i * n) + j) <- Matrix_clock.entry m i j
    done
  done;
  w

let decode_matrix w =
  if Array.length w < 2 then invalid_arg "Codec.decode_matrix: empty buffer";
  let n = w.(0) and me = w.(1) in
  (* [n > length] first: a huge header would overflow [n * n] past the
     length check *)
  if n <= 0 || n > Array.length w || me < 0 || me >= n
     || Array.length w <> (n * n) + 2
  then
    invalid_arg "Codec.decode_matrix: malformed buffer";
  let rows =
    Array.init n (fun i -> Array.init n (fun j -> w.(2 + (i * n) + j)))
  in
  Matrix_clock.of_rows ~me rows

let varint_add buf x =
  let rec go x =
    if x < 0x80 then Buffer.add_char buf (Char.chr x)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
      go (x lsr 7)
    end
  in
  if x < 0 then invalid_arg "Codec.varint: negative" else go x

let varint_read b pos =
  let len = Bytes.length b in
  let rec go pos shift acc =
    if pos >= len then invalid_arg "Codec.decode_vector_varint: truncated";
    (* OCaml ints are 63-bit: a continuation chain past 9 groups would
       shift into (or past) the sign bit and decode a different number
       than was encoded. *)
    if shift >= 63 then invalid_arg "Codec.decode_vector_varint: overlong varint";
    let c = Char.code (Bytes.get b pos) in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let encode_vector_varint v =
  let buf = Buffer.create 16 in
  varint_add buf (Vector_clock.dim v);
  Array.iter (varint_add buf) (Vector_clock.to_array v);
  Buffer.to_bytes buf

let decode_vector_varint b =
  let n, pos = varint_read b 0 in
  (* Each entry needs at least one byte, so a dimension header larger
     than the remaining buffer is malformed — reject it before the
     [Array.make] rather than letting an attacker-sized header allocate
     gigabytes and then fail on the first truncated entry. *)
  if n <= 0 then invalid_arg "Codec.decode_vector_varint: bad dimension";
  if n > Bytes.length b - pos then
    invalid_arg "Codec.decode_vector_varint: truncated";
  let a = Array.make n 0 in
  let pos = ref pos in
  for i = 0 to n - 1 do
    let x, next = varint_read b !pos in
    a.(i) <- x;
    pos := next
  done;
  if !pos <> Bytes.length b then
    invalid_arg "Codec.decode_vector_varint: trailing bytes";
  Vector_clock.of_array a

(* Differential encoding: the pairs come from a merge scan over the two
   clocks' live runs, so its cost tracks what changed plus what is live,
   not [n] (unless an operand is dense). *)
let diff_count ~since v =
  let d = ref 0 in
  Vector_clock.iter_diff ~since v (fun _ _ -> incr d);
  !d

let fill_delta w off ~since v ~d =
  fill_pairs w off ~n:(Vector_clock.dim v) ~count:d
    (Vector_clock.iter_diff ~since v)

let encode_vector_delta ~since v =
  if Vector_clock.dim since <> Vector_clock.dim v then
    invalid_arg "Codec.encode_vector_delta: dimension mismatch";
  let d = diff_count ~since v in
  let w = Array.make (2 + (2 * d)) 0 in
  fill_delta w 0 ~since v ~d;
  w

(* The general decoder: any in-range index, any non-negative value, the
   last write to an index wins. O(n). *)
let decode_delta_dense ~base w off ~n ~count =
  let a = Vector_clock.to_array base in
  for k = 0 to count - 1 do
    let i = w.(off + 2 + (2 * k)) and x = w.(off + 3 + (2 * k)) in
    if i < 0 || i >= n || x < 0 then
      invalid_arg "Codec.decode_vector_delta: malformed entry";
    a.(i) <- x
  done;
  Vector_clock.of_array a

(* What a monotone sender ships — every entry at or above the value it
   replaces and positive — is a componentwise max, so it decodes by
   copying [base] and raising those entries: O(active + count). Any other
   entry (down, to zero, out of range, or a [Dense]-policy base) takes the
   general decoder, which keeps its semantics and errors. *)
let decode_vector_delta_at ~base w off =
  let len = Array.length w - off in
  if len < 2 then invalid_arg "Codec.decode_vector_delta: empty";
  let n = w.(off) and count = w.(off + 1) in
  if n <> Vector_clock.dim base || count < 0 || len <> 2 + (2 * count) then
    invalid_arg "Codec.decode_vector_delta: malformed buffer";
  let rec raise_all c k =
    if k = count then Some c
    else
      let i = w.(off + 2 + (2 * k)) and x = w.(off + 3 + (2 * k)) in
      if i < 0 || i >= n || x <= 0 || x < Vector_clock.entry c i then None
      else begin
        Vector_clock.merge_entry c i x;
        raise_all c (k + 1)
      end
  in
  let raised =
    if Vector_clock.rep base = Vector_clock.Sparse then
      raise_all (Vector_clock.copy base) 0
    else None
  in
  match raised with
  | Some c -> c
  | None -> decode_delta_dense ~base w off ~n ~count

let decode_vector_delta ~base w = decode_vector_delta_at ~base w 0

(* ---------- self-framed piggyback ---------- *)

(* [tag; seq; payload...] where tag selects the payload codec (0 dense,
   1 sparse, 2 delta-since-last-on-this-edge) and seq is the per-edge
   message number the sender's cache was at. Dense and sparse payloads
   are self-contained, so any seq decodes; a delta payload is only
   meaningful against the receiver's mirror of the sender's per-edge
   cache, so the decoder insists the seq is exactly the one it expects
   and rejects anything else — the directed defence against FIFO-bypass
   reordering. *)

type piggyback_mode = Dense | Sparse | Delta

(* Frame sizes are arithmetic — dense [n + 1], sparse [2 + 2k], delta
   [2 + 2d] payload words, [d] counted by the diff scan — and only the
   winner is allocated and filled: O(active v + active since) for epoch
   and sparse clocks. *)
let encode_piggyback ~mode ~seq ?since v =
  if seq < 0 then invalid_arg "Codec.encode_piggyback: negative seq";
  let n = Vector_clock.dim v in
  let framed ~tag len fill =
    let w = Array.make (len + 2) 0 in
    w.(0) <- tag;
    w.(1) <- seq;
    fill w;
    w
  in
  let dense () = framed ~tag:0 (n + 1) (fun w -> fill_dense w 2 v) in
  let sparse k = framed ~tag:1 (2 + (2 * k)) (fun w -> fill_sparse w 2 v ~k) in
  match mode with
  | Dense -> dense ()
  | Sparse -> sparse (Vector_clock.active_entries v)
  | Delta -> (
      (* adaptive: the smallest of the three candidates, sparse on a tie
         with dense, delta only when the sender has a cache to diff
         against and strictly beats the self-contained form *)
      let k = Vector_clock.active_entries v in
      let self_len = min (2 + (2 * k)) (n + 1) in
      let delta =
        match since with
        | Some s when Vector_clock.dim s = n -> Some (s, diff_count ~since:s v)
        | _ -> None
      in
      match delta with
      | Some (s, d) when 2 + (2 * d) < self_len ->
          framed ~tag:2 (2 + (2 * d)) (fun w -> fill_delta w 2 ~since:s v ~d)
      | _ -> if 2 + (2 * k) <= n + 1 then sparse k else dense ())

let piggyback_mode_of w =
  if Array.length w < 2 then
    invalid_arg "Codec.decode_piggyback: truncated frame";
  match w.(0) with
  | 0 -> Dense
  | 1 -> Sparse
  | 2 -> Delta
  | _ -> invalid_arg "Codec.decode_piggyback: unknown tag"

let piggyback_seq w =
  if Array.length w < 2 then
    invalid_arg "Codec.decode_piggyback: truncated frame";
  w.(1)

let decode_piggyback ~expect_seq ?base w =
  let mode = piggyback_mode_of w in
  let seq = w.(1) in
  if seq < 0 then invalid_arg "Codec.decode_piggyback: negative seq";
  let v =
    match mode with
    | Dense -> decode_vector_at w 2
    | Sparse -> decode_vector_sparse_at w 2
    | Delta -> (
        if seq <> expect_seq then
          invalid_arg "Codec.decode_piggyback: out-of-sequence delta";
        match base with
        | None -> invalid_arg "Codec.decode_piggyback: delta without base"
        | Some b -> decode_vector_delta_at ~base:b w 2)
  in
  (v, seq)
