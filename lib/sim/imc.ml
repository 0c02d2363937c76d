type layout_view = { grid : int array; tile : int array }

type result = {
  move_cycles : float;
  compute_cycles : float;
  sync_cycles : float;
  sram_array_cycles : float;
  commands : int;
  elements_computed : float;
  faulted : bool;
}

let grid_stride layout dim =
  let n = Array.length layout.grid in
  let s = ref 1 in
  for d = dim + 1 to n - 1 do
    s := !s * layout.grid.(d)
  done;
  !s

let tile_linear layout coords =
  let n = Array.length layout.grid in
  let idx = ref 0 in
  for d = 0 to n - 1 do
    idx := (!idx * layout.grid.(d)) + coords.(d)
  done;
  !idx

let tile_bank cfg layout coords =
  tile_linear layout coords mod cfg.Machine_config.l3_banks

(* Mean hop distance for a uniform bank shift of [delta] (mod banks). *)
let shift_hops cfg delta =
  let banks = cfg.Machine_config.l3_banks in
  let total = ref 0 in
  for b = 0 to banks - 1 do
    total := !total + Machine_config.hops cfg b ((b + delta) mod banks)
  done;
  float_of_int !total /. float_of_int banks

let kind_name = function
  | Command.Sync -> "sync"
  | Command.Compute _ -> "compute"
  | Command.Reduce _ -> "reduce"
  | Command.Intra_shift _ -> "intra-shift"
  | Command.Inter_shift _ -> "inter-shift"
  | Command.Broadcast _ -> "broadcast"

(* Per-domain cache of config-derived movement costs: the mean hop count
   of a uniform bank shift is O(banks) to derive and the destination-bank
   count of a broadcast walks the multicast pattern — both are pure in
   (cfg, delta) / (cfg, stride, copies), so they are computed once per
   machine config and reused across every region execution on the domain.
   The cache keys on physical equality of the config record (one engine
   run always threads one record; a new/perturbed config rebuilds). *)
type cfg_cache = {
  cc_cfg : Machine_config.t;
  cc_shift_hops : float array; (* delta in [0,banks) -> mean hops; nan unset *)
  cc_bc_banks : (int, float) Hashtbl.t; (* (stride, copies) -> distinct banks *)
  cc_scratch : bool array; (* banks-sized mark buffer, cleared after use *)
}

let cache_key : cfg_cache option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let cfg_cache cfg =
  let slot = Domain.DLS.get cache_key in
  match !slot with
  | Some c when c.cc_cfg == cfg -> c
  | _ ->
    let banks = cfg.Machine_config.l3_banks in
    let c =
      {
        cc_cfg = cfg;
        cc_shift_hops = Array.make banks Float.nan;
        cc_bc_banks = Hashtbl.create 32;
        cc_scratch = Array.make banks false;
      }
    in
    slot := Some c;
    c

let shift_hops_cached cache delta =
  let h = cache.cc_shift_hops.(delta) in
  if Float.is_nan h then begin
    let v = shift_hops cache.cc_cfg delta in
    cache.cc_shift_hops.(delta) <- v;
    v
  end
  else h

(* Which banks receive copies of a broadcast? Walk the bank shift pattern
   of the broadcast dimension: multicast injects each source packet once
   and the tree replicates it. *)
let dest_banks_compute cache ~stride ~copies =
  let banks = cache.cc_cfg.Machine_config.l3_banks in
  let scratch = cache.cc_scratch in
  let count = ref 0 in
  let last = min (copies - 1) (banks - 1) in
  for k = 0 to last do
    let b = k * stride mod banks in
    if not scratch.(b) then begin
      scratch.(b) <- true;
      incr count
    end
  done;
  for k = 0 to last do
    scratch.(k * stride mod banks) <- false
  done;
  float_of_int !count

let dest_banks_cached cache ~stride ~copies =
  let copies = max 1 copies in
  if copies < 0x100000 then begin
    let key = (stride lsl 20) lor copies in
    match Hashtbl.find_opt cache.cc_bc_banks key with
    | Some v -> v
    | None ->
      let v = dest_banks_compute cache ~stride ~copies in
      Hashtbl.replace cache.cc_bc_banks key v;
      v
  end
  else dest_banks_compute cache ~stride ~copies

(* Cycle accumulators as one mutable all-float record: the fields stay
   unboxed under mutation, where a bank of [float ref]s would box every
   update on the inner loop. *)
type acc = {
  mutable move : float;
  mutable comp : float;
  mutable sync : float;
  mutable sram : float;
  mutable elems : float;
  (* Inter-tile NoC bytes accumulated since the last sync barrier; their
     transfer time is charged at the barrier. *)
  mutable pending_noc_bytes : float;
  mutable pending_hops : float;
}

let execute_sim cfg traffic ~layout (cmds : Command.t array) =
  let obs = Traffic.obs_of traffic in
  (* the instrumentation guard hoisted out of the command loop: one bool,
     read once per region *)
  let on = Obs.on obs in
  let cache = cfg_cache cfg in
  let a =
    {
      move = 0.0;
      comp = 0.0;
      sync = 0.0;
      sram = 0.0;
      elems = 0.0;
      pending_noc_bytes = 0.0;
      pending_hops = 0.0;
    }
  in
  let dispatch = float_of_int cfg.Machine_config.cmd_dispatch_cycles in
  let total_arrays = Machine_config.total_compute_arrays cfg in
  let diameter =
    float_of_int
      ((cfg.Machine_config.mesh_x + cfg.mesh_y - 2) * cfg.noc_router_cycles)
  in
  (* Decomposed pieces of one tDFG node touch disjoint tiles and execute
     concurrently on their own SRAM arrays: consecutive commands with the
     same label and kind charge their occupancy once (dispatch still paid
     per command). Tracked in two flat refs — no tuple/option per command. *)
  let last_valid = ref false in
  let last_label = ref "" in
  let last_kind = ref Command.Sync in
  let flush_pending () =
    if a.pending_noc_bytes > 0.0 then begin
      let avg_hops =
        if a.pending_noc_bytes > 0.0 then a.pending_hops /. a.pending_noc_bytes
        else 1.0
      in
      a.move <-
        a.move
        +. Traffic.bulk_cycles_in traffic ~detail:"imc-barrier"
             ~bytes:a.pending_noc_bytes ~avg_hops;
      if on then
        Obs.emit obs
          (Trace.Noc_packet
             {
               dir = Trace.Deliver;
               category = Traffic.category_name Traffic.Inter_tile;
               bytes = a.pending_noc_bytes;
               hops = avg_hops;
               packets = 0.0;
             });
      a.pending_noc_bytes <- 0.0;
      a.pending_hops <- 0.0
    end
  in
  let faults = Traffic.faults_of traffic in
  let faulted = ref false in
  let executed = ref 0 in
  let do_cmd (c : Command.t) ~array_cycles:ac =
    incr executed;
    let tiles_i = Command.tiles_touched c in
    (* Regions larger than the physical compute arrays execute in waves
       over the tile space; each command's occupancy repeats per wave. *)
    let waves =
      float_of_int ((tiles_i + total_arrays - 1) / max 1 total_arrays)
    in
    let tiles = float_of_int tiles_i in
    let lanes = float_of_int c.Command.lanes_per_tile in
    let bytes_per_tile = lanes *. float_of_int (Dtype.bytes c.dtype) in
    let full_occupancy = float_of_int ac in
    let occupancy =
      if
        !last_valid
        && (c.Command.label == !last_label
           || String.equal c.Command.label !last_label)
        && Command.kind_equal c.Command.kind !last_kind
      then 0.0
      else begin
        last_valid := true;
        last_label := c.Command.label;
        last_kind := c.Command.kind;
        full_occupancy *. cfg.Machine_config.imc_cycle_multiplier *. waves
      end
    in
    if on then
      Obs.emit obs
        (Trace.Sram_cmd
           {
             phase = Trace.Issue;
             kind = kind_name c.kind;
             label = c.Command.label;
             tiles = tiles_i;
             lanes = c.lanes_per_tile;
             cycles = 0.0;
           });
    let move0 = a.move and comp0 = a.comp and sync0 = a.sync in
    (match c.kind with
    | Command.Sync ->
      flush_pending ();
      (* barrier: two rounds of control messages across the mesh *)
      a.sync <- a.sync +. (2.0 *. diameter) +. dispatch;
      if on then Obs.emit obs (Trace.Sync_barrier { cycles = (2.0 *. diameter) +. dispatch });
      let banks = float_of_int cfg.Machine_config.l3_banks in
      Traffic.add traffic Traffic.Offload
        ~bytes:(banks *. 16.0)
        ~hops:(Machine_config.avg_hops cfg)
    | Command.Compute { const_operands; _ } ->
      a.comp <- a.comp +. occupancy +. dispatch;
      a.sram <- a.sram +. (tiles *. full_occupancy);
      a.elems <- a.elems +. (tiles *. lanes);
      if const_operands > 0 then
        Traffic.add_local traffic `Htree
          ~bytes:(float_of_int const_operands *. tiles *. bytes_per_tile)
    | Command.Reduce _ ->
      a.comp <- a.comp +. occupancy +. dispatch;
      a.sram <- a.sram +. (tiles *. full_occupancy);
      a.elems <- a.elems +. (tiles *. lanes);
      Traffic.add_local traffic `Intra_tile ~bytes:(tiles *. bytes_per_tile)
    | Command.Intra_shift _ ->
      a.move <- a.move +. occupancy +. dispatch;
      a.sram <- a.sram +. (tiles *. full_occupancy);
      Traffic.add_local traffic `Intra_tile ~bytes:(tiles *. bytes_per_tile)
    | Command.Inter_shift { dim; tile_dist; _ } ->
      a.move <- a.move +. occupancy +. dispatch;
      a.sram <- a.sram +. (tiles *. full_occupancy);
      let delta_linear = tile_dist * grid_stride layout dim in
      let banks = cfg.Machine_config.l3_banks in
      let delta_bank = ((delta_linear mod banks) + banks) mod banks in
      let bytes = tiles *. bytes_per_tile in
      if delta_bank = 0 then begin
        (* stays within each bank: buffered H-tree *)
        Traffic.add_local traffic `Htree ~bytes;
        let per_bank = bytes /. float_of_int banks in
        a.move <- a.move +. (per_bank /. float_of_int cfg.htree_bytes_per_cycle)
      end
      else begin
        let hops = shift_hops_cached cache delta_bank in
        Traffic.add traffic Traffic.Inter_tile ~bytes ~hops;
        a.pending_noc_bytes <- a.pending_noc_bytes +. bytes;
        a.pending_hops <- a.pending_hops +. (bytes *. hops)
      end
    | Command.Broadcast { dim; copies } ->
      a.move <- a.move +. occupancy +. dispatch;
      let dest_tiles = tiles in
      let src_tiles = Float.max 1.0 (tiles /. float_of_int (max 1 copies)) in
      a.sram <- a.sram +. (src_tiles *. full_occupancy);
      let src_bytes = src_tiles *. bytes_per_tile in
      let dest_bytes = dest_tiles *. bytes_per_tile in
      let stride = grid_stride layout dim in
      let banks = cfg.Machine_config.l3_banks in
      let dest_banks = dest_banks_cached cache ~stride ~copies in
      (* multicast: the NoC carries each source packet once (replicated
         at the routers); banks then fan the data out to their tiles over
         the buffered H-tree *)
      Traffic.add traffic Traffic.Inter_tile ~bytes:src_bytes ~hops:dest_banks;
      Traffic.add_local traffic `Htree ~bytes:dest_bytes;
      let eject =
        src_bytes /. float_of_int (banks * cfg.Machine_config.noc_link_bytes)
      in
      let htree =
        dest_bytes /. float_of_int banks
        /. float_of_int cfg.htree_bytes_per_cycle
      in
      a.move <- a.move +. Float.max eject htree);
    if on then
      Obs.emit obs
        (Trace.Sram_cmd
           {
             phase = Trace.Retire;
             kind = kind_name c.kind;
             label = c.Command.label;
             tiles = tiles_i;
             lanes = c.lanes_per_tile;
             cycles = a.move -. move0 +. (a.comp -. comp0) +. (a.sync -. sync0);
           })
  in
  (* One flip draw per command, scaled by its bit-serial exposure. A flip
     corrupts the command's result: the tensor controllers detect it (the
     accumulated parity check fails at the next barrier) and abort the
     region — remaining commands never issue; the cycles already spent are
     wasted and accounted by the caller. *)
  let n = Array.length cmds in
  let memo = Costmemo.local () in
  let i = ref 0 in
  while !i < n && not !faulted do
    let c = Array.unsafe_get cmds !i in
    let ac = Costmemo.array_cycles_local memo c in
    do_cmd c ~array_cycles:ac;
    (match faults with
    | Some fi when Fault.sram_flip fi ~exposure:ac ->
      faulted := true;
      if on then
        Obs.emit obs
          (Trace.Fault
             {
               site = "sram";
               action = "inject";
               detail = kind_name c.kind ^ ":" ^ c.Command.label;
               cycles = 0.0;
             })
    | _ -> ());
    incr i
  done;
  Costmemo.flush memo;
  flush_pending ();
  {
    move_cycles = a.move;
    compute_cycles = a.comp;
    sync_cycles = a.sync;
    sram_array_cycles = a.sram;
    commands = !executed;
    elements_computed = a.elems;
    faulted = !faulted;
  }

(* Span at region granularity, not per command: the command loop is the
   hot path the profiler exists to measure, so instrumenting inside it
   would distort exactly what we are trying to observe. *)
let execute cfg traffic ~layout cmds =
  Prof.span (Obs.prof (Traffic.obs_of traffic)) "imc.execute" (fun () ->
      execute_sim cfg traffic ~layout cmds)
