type wire = int array

let word_bytes = 8

let bytes_of_words w = w * word_bytes

let encode_vector v =
  let a = Vector_clock.to_array v in
  let n = Array.length a in
  Array.init (n + 1) (fun i -> if i = 0 then n else a.(i - 1))

let decode_vector w =
  if Array.length w = 0 then invalid_arg "Codec.decode_vector: empty buffer";
  let n = w.(0) in
  if n <= 0 || Array.length w <> n + 1 then
    invalid_arg "Codec.decode_vector: malformed buffer";
  Vector_clock.of_array (Array.sub w 1 n)

(* Sparse encoding: dimension and pair-count headers, then the nonzero
   components as strictly ascending (pid, tick) pairs — [2k + 2] words
   for [k] live components, beating the dense [n + 1] words whenever
   fewer than half the processes have touched the clock. The decoder
   rejects truncated or padded buffers, out-of-range or unsorted pids,
   and non-positive ticks. *)
let encode_vector_sparse v =
  let n = Vector_clock.dim v in
  let k = Vector_clock.active_entries v in
  let w = Array.make (2 + (2 * k)) 0 in
  w.(0) <- n;
  w.(1) <- k;
  let slot = ref 0 in
  for i = 0 to n - 1 do
    let x = Vector_clock.entry v i in
    if x <> 0 then begin
      w.(2 + (2 * !slot)) <- i;
      w.(3 + (2 * !slot)) <- x;
      incr slot
    end
  done;
  w

let decode_vector_sparse w =
  if Array.length w < 2 then
    invalid_arg "Codec.decode_vector_sparse: truncated buffer";
  let n = w.(0) and k = w.(1) in
  if n <= 0 || k < 0 || k > n then
    invalid_arg "Codec.decode_vector_sparse: malformed header";
  if Array.length w < 2 + (2 * k) then
    invalid_arg "Codec.decode_vector_sparse: truncated buffer";
  if Array.length w > 2 + (2 * k) then
    invalid_arg "Codec.decode_vector_sparse: trailing words";
  let a = Array.make n 0 in
  let prev = ref (-1) in
  for j = 0 to k - 1 do
    let pid = w.(2 + (2 * j)) and tick = w.(3 + (2 * j)) in
    if pid <= !prev || pid >= n then
      invalid_arg "Codec.decode_vector_sparse: pids not ascending in range";
    if tick <= 0 then
      invalid_arg "Codec.decode_vector_sparse: non-positive tick";
    a.(pid) <- tick;
    prev := pid
  done;
  Vector_clock.of_array a

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
  if n <= 0 || me < 0 || me >= n || Array.length w <> (n * n) + 2 then
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

let encode_vector_delta ~since v =
  if Vector_clock.dim since <> Vector_clock.dim v then
    invalid_arg "Codec.encode_vector_delta: dimension mismatch";
  let n = Vector_clock.dim v in
  let diffs = ref [] and count = ref 0 in
  for i = n - 1 downto 0 do
    let x = Vector_clock.entry v i in
    if x <> Vector_clock.entry since i then begin
      diffs := (i, x) :: !diffs;
      incr count
    end
  done;
  let w = Array.make (2 + (2 * !count)) 0 in
  w.(0) <- n;
  w.(1) <- !count;
  List.iteri
    (fun k (i, x) ->
      w.(2 + (2 * k)) <- i;
      w.(3 + (2 * k)) <- x)
    !diffs;
  w

let decode_vector_delta ~base w =
  if Array.length w < 2 then invalid_arg "Codec.decode_vector_delta: empty";
  let n = w.(0) and count = w.(1) in
  if n <> Vector_clock.dim base || count < 0
     || Array.length w <> 2 + (2 * count)
  then invalid_arg "Codec.decode_vector_delta: malformed buffer";
  let a = Vector_clock.to_array base in
  for k = 0 to count - 1 do
    let i = w.(2 + (2 * k)) and x = w.(3 + (2 * k)) in
    if i < 0 || i >= n || x < 0 then
      invalid_arg "Codec.decode_vector_delta: malformed entry";
    a.(i) <- x
  done;
  Vector_clock.of_array a

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

let frame ~tag ~seq payload =
  let n = Array.length payload in
  let w = Array.make (n + 2) 0 in
  w.(0) <- tag;
  w.(1) <- seq;
  Array.blit payload 0 w 2 n;
  w

let encode_piggyback ~mode ~seq ?since v =
  if seq < 0 then invalid_arg "Codec.encode_piggyback: negative seq";
  match mode with
  | Dense -> frame ~tag:0 ~seq (encode_vector v)
  | Sparse -> frame ~tag:1 ~seq (encode_vector_sparse v)
  | Delta ->
      (* adaptive: smallest of the three candidate payloads, delta only
         when the sender has a cache to diff against *)
      let dense = encode_vector v in
      let sparse = encode_vector_sparse v in
      let delta =
        match since with
        | Some s when Vector_clock.dim s = Vector_clock.dim v ->
            Some (encode_vector_delta ~since:s v)
        | _ -> None
      in
      let self_contained =
        if Array.length sparse <= Array.length dense then
          frame ~tag:1 ~seq sparse
        else frame ~tag:0 ~seq dense
      in
      (match delta with
      | Some d when Array.length d + 2 < Array.length self_contained ->
          frame ~tag:2 ~seq d
      | _ -> self_contained)

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
  let payload = Array.sub w 2 (Array.length w - 2) in
  let v =
    match mode with
    | Dense -> decode_vector payload
    | Sparse -> decode_vector_sparse payload
    | Delta -> (
        if seq <> expect_seq then
          invalid_arg "Codec.decode_piggyback: out-of-sequence delta";
        match base with
        | None -> invalid_arg "Codec.decode_piggyback: delta without base"
        | Some b -> decode_vector_delta ~base:b payload)
  in
  (v, seq)
