type kind = Counter | Gauge | Histogram

(* One series. Scalar kinds use [v]; histograms use [count]/[sum]/[zero]
   and the exponent-indexed bucket table. *)
type cell = {
  c_name : string;
  c_labels : (string * string) list; (* sorted by key *)
  c_kind : kind;
  mutable v : float;
  mutable count : int;
  mutable sum : float;
  mutable zero : int;
  bkts : (int, int ref) Hashtbl.t; (* exponent e -> samples in (2^(e-1), 2^e] *)
}

(* Static XY-routing link profile of an mx*my mesh, with the per-link gauge
   cells pre-resolved so the per-packet fan-out is a float add per link. *)
type mesh = {
  m_mx : int;
  m_my : int;
  weights : float array;
  wtotal : float;
  link_cells : cell array;
}

type reg = {
  cells : (string, cell) Hashtbl.t;
  mutable ncalls : int;
  mutable mesh : mesh option;
  mutable bank_cells : cell array; (* [||] until first sram_cmd *)
}

type t = reg option

let null = None
let create () =
  Some { cells = Hashtbl.create 64; ncalls = 0; mesh = None; bank_cells = [||] }

let enabled = function None -> false | Some _ -> true
let calls = function None -> 0 | Some r -> r.ncalls

(* ----- series lookup ----- *)

let sort_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let key name labels =
  match labels with
  | [] -> name
  | _ ->
    let b = Buffer.create 48 in
    Buffer.add_string b name;
    List.iter
      (fun (k, v) ->
        Buffer.add_char b '\x00';
        Buffer.add_string b k;
        Buffer.add_char b '\x01';
        Buffer.add_string b v)
      labels;
    Buffer.contents b

let get_cell r kind name labels =
  let labels = sort_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt r.cells k with
  | Some c -> c
  | None ->
    let c =
      {
        c_name = name;
        c_labels = labels;
        c_kind = kind;
        v = 0.0;
        count = 0;
        sum = 0.0;
        zero = 0;
        bkts = (match kind with Histogram -> Hashtbl.create 8 | _ -> Hashtbl.create 1);
      }
    in
    Hashtbl.add r.cells k c;
    c

let cell_add c x = c.v <- c.v +. x

(* Smallest e with v <= 2^e (so v lands in (2^(e-1), 2^e]), clamped to keep
   the series bounded. *)
let bucket_exp v =
  let m, e = Float.frexp v in
  let e = if m = 0.5 then e - 1 else e in
  if e < -64 then -64 else if e > 128 then 128 else e

let cell_observe c x =
  c.count <- c.count + 1;
  c.sum <- c.sum +. x;
  if x <= 0.0 then c.zero <- c.zero + 1
  else begin
    let e = bucket_exp x in
    match Hashtbl.find_opt c.bkts e with
    | Some n -> incr n
    | None -> Hashtbl.add c.bkts e (ref 1)
  end

(* ----- public updates ----- *)

let incr t ?(labels = []) name x =
  match t with
  | None -> ()
  | Some r ->
    r.ncalls <- r.ncalls + 1;
    cell_add (get_cell r Counter name labels) x

let gauge_add t ?(labels = []) name x =
  match t with
  | None -> ()
  | Some r ->
    r.ncalls <- r.ncalls + 1;
    cell_add (get_cell r Gauge name labels) x

let observe t ?(labels = []) name x =
  match t with
  | None -> ()
  | Some r ->
    r.ncalls <- r.ncalls + 1;
    cell_observe (get_cell r Histogram name labels) x

let value t ?(labels = []) name =
  match t with
  | None -> 0.0
  | Some r -> (
    match Hashtbl.find_opt r.cells (key name (sort_labels labels)) with
    | Some c -> c.v
    | None -> 0.0)

(* ----- snapshots ----- *)

type hist = { count : int; sum : float; buckets : (float * int) list }
type sample = Value of float | Dist of hist

type series = {
  name : string;
  labels : (string * string) list;
  kind : kind;
  sample : sample;
}

let snapshot t =
  match t with
  | None -> []
  | Some r ->
    Hashtbl.fold
      (fun _ c acc ->
        let sample =
          match c.c_kind with
          | Counter | Gauge -> Value c.v
          | Histogram ->
            let exps =
              Hashtbl.fold (fun e n acc -> (e, !n) :: acc) c.bkts []
              |> List.sort (fun (a, _) (b, _) -> compare a b)
            in
            let buckets =
              (if c.zero > 0 then [ (0.0, c.zero) ] else [])
              @ List.map (fun (e, n) -> (Float.ldexp 1.0 e, n)) exps
            in
            Dist { count = c.count; sum = c.sum; buckets }
        in
        { name = c.c_name; labels = c.c_labels; kind = c.c_kind; sample } :: acc)
      r.cells []
    |> List.sort (fun a b ->
           match String.compare a.name b.name with
           | 0 -> compare a.labels b.labels
           | c -> c)

let hist_quantile h q =
  if h.count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let target = q *. float_of_int h.count in
    let rec go lo cum = function
      | [] -> lo
      | (ub, n) :: rest ->
        let cum' = cum +. float_of_int n in
        if n > 0 && cum' >= target then
          lo +. ((ub -. lo) *. ((target -. cum) /. float_of_int n))
        else go ub cum' rest
    in
    go 0.0 0.0 h.buckets
  end

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let to_json series =
  Json.Obj
    [
      ("schema", Json.Str "infs-metrics-1");
      ( "series",
        Json.Arr
          (List.map
             (fun s ->
               let base =
                 [
                   ("name", Json.Str s.name);
                   ( "labels",
                     Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels)
                   );
                   ("kind", Json.Str (kind_name s.kind));
                 ]
               in
               let rest =
                 match s.sample with
                 | Value v -> [ ("value", Json.Num v) ]
                 | Dist h ->
                   [
                     ("count", Json.Num (float_of_int h.count));
                     ("sum", Json.Num h.sum);
                     ( "buckets",
                       Json.Arr
                         (List.map
                            (fun (ub, n) ->
                              Json.Arr [ Json.Num ub; Json.Num (float_of_int n) ])
                            h.buckets) );
                   ]
               in
               Json.Obj (base @ rest))
             series) );
    ]

(* ----- Prometheus text exposition ----- *)

let prom_name s =
  let b = Buffer.create (String.length s + 5) in
  Buffer.add_string b "infs_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    s;
  Buffer.contents b

let prom_label_value s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_label_value v))
           labels)
    ^ "}"

let to_prom series =
  let b = Buffer.create 1024 in
  let last_typed = ref "" in
  List.iter
    (fun s ->
      let pname = prom_name s.name in
      if !last_typed <> pname then begin
        last_typed := pname;
        Printf.bprintf b "# TYPE %s %s\n" pname (kind_name s.kind)
      end;
      match s.sample with
      | Value v ->
        let suffix = match s.kind with Counter -> "_total" | _ -> "" in
        Printf.bprintf b "%s%s%s %s\n" pname suffix (prom_labels s.labels)
          (Json.fmt_float v)
      | Dist h ->
        let cum = ref 0 in
        List.iter
          (fun (ub, n) ->
            cum := !cum + n;
            Printf.bprintf b "%s_bucket%s %d\n" pname
              (prom_labels ~extra:("le", Json.fmt_float ub) s.labels)
              !cum)
          h.buckets;
        Printf.bprintf b "%s_bucket%s %d\n" pname
          (prom_labels ~extra:("le", "+Inf") s.labels)
          h.count;
        Printf.bprintf b "%s_sum%s %s\n" pname (prom_labels s.labels)
          (Json.fmt_float h.sum);
        Printf.bprintf b "%s_count%s %d\n" pname (prom_labels s.labels) h.count)
    series;
  Buffer.contents b

let write_file t path =
  match t with
  | None -> ()
  | Some _ ->
    let snap = snapshot t in
    let body =
      if Side_file.has_ext path ".prom" then to_prom snap
      else Json.to_string (to_json snap) ^ "\n"
    in
    let oc = open_out path in
    output_string oc body;
    close_out oc

(* ----- mesh link profile ----- *)

(* Directed links of an mx*my mesh, enumerated deterministically; per-link
   traversal counts of XY routing summed over all ordered (src, dst) router
   pairs. Byte-hops of a packet are spread proportional to these weights
   (the simulator models bulk transfers between uniformly spread banks, so
   the static profile is the exact expected distribution). *)
let build_mesh r ~mx ~my =
  let idx : (int * int * int * int, int) Hashtbl.t = Hashtbl.create 512 in
  let names = ref [] in
  let n_links = ref 0 in
  let add_link sx sy dx dy =
    if not (Hashtbl.mem idx (sx, sy, dx, dy)) then begin
      Hashtbl.add idx (sx, sy, dx, dy) !n_links;
      names := Printf.sprintf "%d,%d>%d,%d" sx sy dx dy :: !names;
      n_links := !n_links + 1
    end
  in
  for y = 0 to my - 1 do
    for x = 0 to mx - 1 do
      if x + 1 < mx then begin
        add_link x y (x + 1) y;
        add_link (x + 1) y x y
      end;
      if y + 1 < my then begin
        add_link x y x (y + 1);
        add_link x (y + 1) x y
      end
    done
  done;
  let counts = Array.make (max 1 !n_links) 0 in
  let bump sx sy dx dy =
    let i = Hashtbl.find idx (sx, sy, dx, dy) in
    counts.(i) <- counts.(i) + 1
  in
  let routers = mx * my in
  for s = 0 to routers - 1 do
    for d = 0 to routers - 1 do
      if s <> d then begin
        let sx = s mod mx and sy = s / mx in
        let dx = d mod mx and dy = d / mx in
        let x = ref sx in
        while !x <> dx do
          let nx = if dx > !x then !x + 1 else !x - 1 in
          bump !x sy nx sy;
          x := nx
        done;
        let y = ref sy in
        while !y <> dy do
          let ny = if dy > !y then !y + 1 else !y - 1 in
          bump dx !y dx ny;
          y := ny
        done
      end
    done
  done;
  let names = Array.of_list (List.rev !names) in
  let weights = Array.map float_of_int (Array.sub counts 0 (max 0 !n_links)) in
  let wtotal = Array.fold_left ( +. ) 0.0 weights in
  let link_cells =
    Array.map
      (fun name -> get_cell r Gauge "noc.link.byte_hops" [ ("link", name) ])
      names
  in
  { m_mx = mx; m_my = my; weights; wtotal; link_cells }

let mesh_of r ~mx ~my =
  match r.mesh with
  | Some m when m.m_mx = mx && m.m_my = my -> m
  | _ ->
    let m = build_mesh r ~mx ~my in
    r.mesh <- Some m;
    m

let bank_cells_of r ~banks =
  if Array.length r.bank_cells = banks then r.bank_cells
  else begin
    let cells =
      Array.init banks (fun i ->
          get_cell r Gauge "imc.bank.busy_cycles"
            [ ("bank", Printf.sprintf "%02d" i) ])
    in
    r.bank_cells <- cells;
    cells
  end

let label_offset label =
  String.fold_left (fun acc c -> acc + Char.code c) 0 label

(* ----- event-shaped instrumentation ----- *)

module Sim = struct
  let noc_packet t ~mx ~my ~cat ~bytes ~hops ~packets =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      let labels = [ ("cat", cat) ] in
      (* identical accumulation expressions, in identical order, to the
         Traffic buckets — byte/byte-hop totals are bit-equal to Report *)
      cell_add (get_cell r Counter "noc.bytes" labels) bytes;
      cell_add (get_cell r Counter "noc.byte_hops" labels) (bytes *. hops);
      cell_add (get_cell r Counter "noc.packets" labels) packets;
      cell_observe (get_cell r Histogram "noc.packet_bytes" labels) bytes;
      let m = mesh_of r ~mx ~my in
      if m.wtotal > 0.0 then begin
        let bh = bytes *. hops in
        Array.iteri
          (fun i c -> cell_add c (bh *. m.weights.(i) /. m.wtotal))
          m.link_cells
      end

  let local_move t ~channel ~bytes =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      cell_add (get_cell r Counter "local.bytes" [ ("channel", channel) ]) bytes

  let sram_cmd t ~banks ~kind ~label ~tiles ~cycles =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      let labels = [ ("kind", kind) ] in
      cell_add (get_cell r Counter "sram.commands" labels) 1.0;
      cell_observe (get_cell r Histogram "imc.cmd_cycles" labels) cycles;
      if banks > 0 then begin
        let cells = bank_cells_of r ~banks in
        let n = max 1 (min tiles banks) in
        let start = label_offset label mod banks in
        for i = 0 to n - 1 do
          cell_add cells.((start + i) mod banks) cycles
        done
      end

  let sync_barrier t ~cycles =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      cell_add (get_cell r Counter "sync.barriers" []) 1.0;
      cell_add (get_cell r Counter "sync.cycles" []) cycles

  let dram_burst t ~channels ~bytes ~cycles =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      let bursts = get_cell r Counter "dram.bursts" [] in
      let seq = int_of_float bursts.v in
      cell_add bursts 1.0;
      cell_add (get_cell r Counter "dram.bytes" []) bytes;
      cell_add (get_cell r Counter "dram.busy_cycles" []) cycles;
      cell_observe (get_cell r Histogram "dram.burst_bytes" []) bytes;
      if channels > 0 then
        (* round-robin channel interleave in burst order — deterministic
           and reproducible from the event stream alone *)
        cell_add
          (get_cell r Gauge "dram.channel.bytes"
             [ ("ch", Printf.sprintf "%02d" (seq mod channels)) ])
          bytes

  let ttu t ~bytes ~cycles =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      cell_add (get_cell r Counter "ttu.bytes" []) bytes;
      cell_add (get_cell r Counter "ttu.cycles" []) cycles;
      cell_observe (get_cell r Histogram "ttu.transpose_bytes" []) bytes

  let jit_exit t ~commands ~cycles =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      cell_add (get_cell r Counter "jit.lowerings" []) 1.0;
      cell_add (get_cell r Counter "jit.commands" []) (float_of_int commands);
      cell_observe (get_cell r Histogram "jit.lower_cycles" []) cycles

  let memo t ~hit =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      cell_add
        (get_cell r Counter (if hit then "jit.memo_hits" else "jit.memo_misses") [])
        1.0

  let decision t ~target =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      cell_add (get_cell r Counter "decision" [ ("target", target) ]) 1.0

  let fault t ~site ~action ~cycles =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      cell_add
        (get_cell r Counter "fault" [ ("site", site); ("action", action) ])
        1.0;
      if cycles > 0.0 then
        cell_add (get_cell r Counter "fault.cycles" [ ("site", site) ]) cycles

  let region_exec t ~kernel ~where ~cycles =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      cell_add (get_cell r Counter "regions" [ ("where", where) ]) 1.0;
      cell_add
        (get_cell r Gauge "region.cycles"
           [ ("kernel", kernel); ("where", where) ])
        cycles

  let cycles t ~cat x =
    match t with
    | None -> ()
    | Some r ->
      r.ncalls <- r.ncalls + 1;
      cell_observe (get_cell r Histogram "cycles" [ ("cat", cat) ]) x

  let counter t ~name ~value =
    match t with
    | None -> ()
    | Some r ->
      if String.length name > 7 && String.sub name 0 7 = "cycles." then
        cycles t ~cat:(String.sub name 7 (String.length name - 7)) value
      else begin
        r.ncalls <- r.ncalls + 1;
        cell_add (get_cell r Counter name []) value
      end
end
