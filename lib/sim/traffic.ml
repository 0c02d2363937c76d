type category = Control | Data | Offload | Inter_tile

let category_name = function
  | Control -> "control"
  | Data -> "data"
  | Offload -> "offload"
  | Inter_tile -> "inter-tile"

type bucket = { mutable bytes : float; mutable byte_hops : float; mutable packets : float }

type t = {
  cfg : Machine_config.t;
  obs : Obs.t;
  faults : Fault.injector option;
  control : bucket;
  data : bucket;
  offload : bucket;
  inter_tile : bucket;
  mutable intra_tile_bytes : float;
  mutable htree_bytes : float;
}

let fresh_bucket () = { bytes = 0.0; byte_hops = 0.0; packets = 0.0 }

let create ?(obs = Obs.null) ?faults cfg =
  {
    cfg;
    obs;
    faults;
    control = fresh_bucket ();
    data = fresh_bucket ();
    offload = fresh_bucket ();
    inter_tile = fresh_bucket ();
    intra_tile_bytes = 0.0;
    htree_bytes = 0.0;
  }

let obs_of t = t.obs
let faults_of t = t.faults

let reset t =
  List.iter
    (fun b ->
      b.bytes <- 0.0;
      b.byte_hops <- 0.0;
      b.packets <- 0.0)
    [ t.control; t.data; t.offload; t.inter_tile ];
  t.intra_tile_bytes <- 0.0;
  t.htree_bytes <- 0.0

let bucket t = function
  | Control -> t.control
  | Data -> t.data
  | Offload -> t.offload
  | Inter_tile -> t.inter_tile

let add t cat ~bytes ~hops =
  let b = bucket t cat in
  let packets = Float.max 1.0 (bytes /. float_of_int t.cfg.noc_link_bytes) in
  b.bytes <- b.bytes +. bytes;
  b.byte_hops <- b.byte_hops +. (bytes *. hops);
  b.packets <- b.packets +. packets;
  if Obs.on t.obs then
    Obs.emit t.obs
      (Trace.Noc_packet
         { dir = Trace.Send; category = category_name cat; bytes; hops; packets })

let add_local t which ~bytes =
  (match which with
  | `Intra_tile -> t.intra_tile_bytes <- t.intra_tile_bytes +. bytes
  | `Htree -> t.htree_bytes <- t.htree_bytes +. bytes);
  if Obs.on t.obs then
    Obs.emit t.obs
      (Trace.Local_move
         {
           channel = (match which with `Intra_tile -> "intra-tile" | `Htree -> "htree");
           bytes;
         })

let bytes t cat = (bucket t cat).bytes
let byte_hops t cat = (bucket t cat).byte_hops
let packets t cat = (bucket t cat).packets

let local_bytes t = function
  | `Intra_tile -> t.intra_tile_bytes
  | `Htree -> t.htree_bytes

let total_bytes t =
  t.control.bytes +. t.data.bytes +. t.offload.bytes +. t.inter_tile.bytes

let total_byte_hops t =
  t.control.byte_hops +. t.data.byte_hops +. t.offload.byte_hops
  +. t.inter_tile.byte_hops

let utilization t ~cycles =
  if cycles <= 0.0 then 0.0
  else
    let capacity =
      float_of_int (Machine_config.noc_links t.cfg)
      *. float_of_int t.cfg.noc_link_bytes *. cycles
    in
    total_byte_hops t /. capacity

let bulk_cycles cfg ~bytes ~avg_hops =
  if bytes <= 0.0 then 0.0
  else begin
    (* endpoint serialization: traffic spread over all banks, each bank
       injecting/ejecting one link's width per cycle *)
    let endpoint =
      bytes /. float_of_int (cfg.Machine_config.l3_banks * cfg.noc_link_bytes)
    in
    (* bisection: every byte crosses ~avg_hops/diameter of the bisection *)
    let cross_fraction =
      Float.min 1.0
        (avg_hops /. float_of_int (cfg.Machine_config.mesh_x + cfg.mesh_y))
    in
    let bisection =
      bytes *. cross_fraction /. Machine_config.bisection_bytes_per_cycle cfg
    in
    let latency = avg_hops *. float_of_int cfg.noc_router_cycles in
    Float.max endpoint bisection +. latency
  end

(* Instance variant of [bulk_cycles]: when an injector is attached, each
   bulk transfer draws a link-degradation fault. A degraded transfer takes
   [jitter]x its nominal cycles; the extra latency is emitted as a fault
   event so analyze can attribute it. The [detail] string names the call
   site (deterministic, scheduling-independent). *)
let bulk_cycles_in t ~detail ~bytes ~avg_hops =
  let prof = Obs.prof t.obs in
  let t0 = if Prof.enabled prof then Prof.now_ns () else 0.0 in
  let base = bulk_cycles t.cfg ~bytes ~avg_hops in
  let cycles =
    match t.faults with
    | None -> base
    | Some fi ->
      if bytes <= 0.0 then base
      else begin
        let factor = Fault.noc_factor fi in
        if factor > 1.0 then begin
          let extra = base *. (factor -. 1.0) in
          if Obs.on t.obs then
            Obs.emit t.obs
              (Trace.Fault
                 { site = "noc"; action = "inject"; detail; cycles = extra });
          base +. extra
        end
        else base
      end
  in
  if Prof.enabled prof then
    Prof.record prof "noc.bulk" ~ns:(Prof.now_ns () -. t0);
  cycles

let merge_into ~dst src =
  List.iter2
    (fun d s ->
      d.bytes <- d.bytes +. s.bytes;
      d.byte_hops <- d.byte_hops +. s.byte_hops;
      d.packets <- d.packets +. s.packets)
    [ dst.control; dst.data; dst.offload; dst.inter_tile ]
    [ src.control; src.data; src.offload; src.inter_tile ];
  dst.intra_tile_bytes <- dst.intra_tile_bytes +. src.intra_tile_bytes;
  dst.htree_bytes <- dst.htree_bytes +. src.htree_bytes

let pp ppf t =
  Format.fprintf ppf
    "@[<v>traffic (byte-hops): control=%.3e data=%.3e offload=%.3e inter-tile=%.3e; local: intra=%.3e htree=%.3e@]"
    t.control.byte_hops t.data.byte_hops t.offload.byte_hops
    t.inter_tile.byte_hops t.intra_tile_bytes t.htree_bytes
