type transport = Inline | Piggyback_txn | Explicit_txn

type clock_mode = Vector | Lamport_only

type granularity = Variable | Block of int | Word

type clock_rep = Dense_vector | Sparse_vector

type clock_wire = Dense_wire | Sparse_wire | Delta_wire

type t = {
  use_write_clock : bool;
  transport : transport;
  clock_mode : clock_mode;
  granularity : granularity;
  clock_rep : clock_rep;
  clock_wire : clock_wire;
  store_shards : int;
  record_trace : bool;
  trace_reads_from : [ `All_writers | `Last_writer ];
  ordered_locking : bool;
  lock_aware_clocks : bool;
  provenance_depth : int;
  memory_model : Dsm_rdma.Model.t;
}

let default =
  {
    use_write_clock = true;
    transport = Piggyback_txn;
    clock_mode = Vector;
    granularity = Variable;
    clock_rep = Sparse_vector;
    clock_wire = Delta_wire;
    store_shards = 8;
    record_trace = false;
    trace_reads_from = `All_writers;
    ordered_locking = true;
    lock_aware_clocks = false;
    provenance_depth = 4;
    memory_model = Dsm_rdma.Model.default;
  }

let transport_name = function
  | Inline -> "inline"
  | Piggyback_txn -> "piggyback"
  | Explicit_txn -> "explicit"

let granularity_name = function
  | Variable -> "var"
  | Block k -> Printf.sprintf "block%d" k
  | Word -> "word"

let clock_wire_name = function
  | Dense_wire -> "dense"
  | Sparse_wire -> "sparse"
  | Delta_wire -> "delta"

let validate t =
  (match t.granularity with
  | Block k when k < 1 ->
      invalid_arg "Config.validate: block size must be positive"
  | Variable | Block _ | Word -> ());
  if t.store_shards < 1 || t.store_shards land (t.store_shards - 1) <> 0 then
    invalid_arg "Config.validate: store_shards must be a positive power of two";
  if t.provenance_depth < 0 then
    invalid_arg "Config.validate: provenance_depth must be non-negative";
  t
