(* Memoized per-command bit-serial array occupancy (DESIGN.md §16).

   [Command.array_cycles] is a pure function of the command's opcode,
   operand widths (dtype + shift distance / reduce width / constant
   operand count) — never of its tile box, lanes, or label — so the sim
   hot loop looks the cost up in a flat int-keyed table instead of
   re-walking the bit-serial cost model (the [Reduce] case loops over
   reduction rounds) two or three times per command.

   The key packs (kind tag, opcode, dtype, width parameter) injectively
   into one int, so lookups allocate nothing. Tables are per-domain
   (Domain.DLS): the batch pool runs engines on several domains and a
   shared table would race. Hit/miss counters are process-global atomics
   surfaced by `bench --smoke` as `sim.costmemo.{hit,miss}` — they are
   deliberately NOT trace events or metric series, which are both pinned
   byte-for-byte by golden tests. *)

let hits_a = Atomic.make 0
let misses_a = Atomic.make 0

let hits () = Atomic.get hits_a
let misses () = Atomic.get misses_a

let hit_rate () =
  let h = float_of_int (hits ()) and m = float_of_int (misses ()) in
  if h +. m <= 0.0 then 0.0 else h /. (h +. m)

let reset () =
  Atomic.set hits_a 0;
  Atomic.set misses_a 0

let dtype_code = function
  | Dtype.Int8 -> 0
  | Dtype.Int16 -> 1
  | Dtype.Int32 -> 2
  | Dtype.Fp32 -> 3

let op_code = function
  | Op.Add -> 0
  | Op.Sub -> 1
  | Op.Mul -> 2
  | Op.Div -> 3
  | Op.Min -> 4
  | Op.Max -> 5
  | Op.Lt -> 6
  | Op.Select -> 7
  | Op.Relu -> 8
  | Op.Abs -> 9
  | Op.Neg -> 10
  | Op.Copy -> 11
  | Op.Sqrt -> 12

(* dtype: 2 bits, op: 4 bits, kind tag: 3 bits, parameter: the rest.
   The parameter (shift distance) may be negative; [lsl] keeps the
   packing injective over the full int range that can ever occur. *)
let pack ~tag ~op ~dtype ~param =
  dtype_code dtype lor (op lsl 2) lor (tag lsl 6) lor (param lsl 9)

let key_of (c : Command.t) =
  match c.Command.kind with
  | Command.Compute { op; const_operands } ->
    pack ~tag:0 ~op:(op_code op) ~dtype:c.dtype ~param:const_operands
  | Command.Intra_shift { distance; _ } ->
    pack ~tag:1 ~op:0 ~dtype:c.dtype ~param:distance
  | Command.Inter_shift { intra_dist; _ } ->
    pack ~tag:2 ~op:0 ~dtype:c.dtype ~param:intra_dist
  | Command.Broadcast _ -> pack ~tag:3 ~op:0 ~dtype:c.dtype ~param:0
  | Command.Reduce { op; width } ->
    pack ~tag:4 ~op:(op_code op) ~dtype:c.dtype ~param:width
  | Command.Sync -> 0 (* never reaches the table *)

let table_key : (int, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 512)

(* The command loop's interface: one DLS fetch per region and one atomic
   add per counter at the end instead of per command. Nothing reads the
   counters mid-region. *)
type local = {
  tbl : (int, int) Hashtbl.t;
  mutable lhits : int;
  mutable lmisses : int;
  (* one-entry fast path over the table: consecutive commands usually
     share a cost key. [last_key]/[last_val] mirror a binding that is in
     [tbl] (bindings are never removed or changed), so a fast-path return
     is a table hit. min_int never collides with a packed key. *)
  mutable last_key : int;
  mutable last_val : int;
}

let local () =
  {
    tbl = Domain.DLS.get table_key;
    lhits = 0;
    lmisses = 0;
    last_key = min_int;
    last_val = 0;
  }

let array_cycles_local l (c : Command.t) =
  match c.Command.kind with
  | Command.Sync -> 0
  | _ -> begin
    let k = key_of c in
    if k = l.last_key then begin
      l.lhits <- l.lhits + 1;
      l.last_val
    end
    else begin
      match Hashtbl.find l.tbl k with
      | v ->
        l.lhits <- l.lhits + 1;
        l.last_key <- k;
        l.last_val <- v;
        v
      | exception Not_found ->
        l.lmisses <- l.lmisses + 1;
        let v = Command.array_cycles c in
        Hashtbl.replace l.tbl k v;
        l.last_key <- k;
        l.last_val <- v;
        v
    end
  end

let flush l =
  if l.lhits > 0 then begin
    ignore (Atomic.fetch_and_add hits_a l.lhits);
    l.lhits <- 0
  end;
  if l.lmisses > 0 then begin
    ignore (Atomic.fetch_and_add misses_a l.lmisses);
    l.lmisses <- 0
  end
