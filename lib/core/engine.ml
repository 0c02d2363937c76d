type paradigm = Base_1 | Base | Near_l3 | In_l3 | Inf_s | Inf_s_nojit

let paradigm_to_string = function
  | Base_1 -> "Base-Thread-1"
  | Base -> "Base"
  | Near_l3 -> "Near-L3"
  | In_l3 -> "In-L3"
  | Inf_s -> "Inf-S"
  | Inf_s_nojit -> "Inf-S-noJIT"

let all_paradigms = [ Base_1; Base; Near_l3; In_l3; Inf_s; Inf_s_nojit ]

let paradigm_of_string = function
  | "base1" | "base-1" -> Ok Base_1
  | "base" -> Ok Base
  | "near" | "near-l3" -> Ok Near_l3
  | "in-l3" | "inl3" -> Ok In_l3
  | "inf-s" | "infs" -> Ok Inf_s
  | "inf-s-nojit" | "nojit" -> Ok Inf_s_nojit
  | s -> (
    match List.find_opt (fun p -> paradigm_to_string p = s) all_paradigms with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown paradigm %s" s))

type options = {
  cfg : Machine_config.t;
  functional : bool;
  optimize : bool;
  tile_override : int array option;
  charge_jit : bool;
  warm_data : bool;
  pre_transposed : bool;
  trace : Trace.t;
  metrics : Metrics.t;
  prof : Prof.t;
  share_compile : bool;
  faults : Fault.spec;
  decision_policy : Decision.policy;
}

let default_options =
  {
    cfg = Machine_config.default;
    functional = false;
    optimize = true;
    tile_override = None;
    charge_jit = true;
    warm_data = false;
    pre_transposed = false;
    trace = Trace.null;
    metrics = Metrics.null;
    prof = Prof.null;
    share_compile = false;
    faults = Fault.none;
    decision_policy = Decision.Heuristic;
  }

(* ---- process-wide compile cache (batch / bench paths) ----

   Compilation (frontend extraction, e-graph optimization, scheduling) is a
   pure function of the program text and the optimizer flag, so its result
   can be shared across jobs and across domains. The cache is
   content-addressed: the key digests the printed program, the machine
   configuration and the optimizer flag. Cached fat binaries are treated as
   immutable after construction — the engine only reads them — which is
   what makes cross-domain sharing safe. Off by default ([share_compile]):
   single runs and golden traces behave exactly as before. *)

let compile_cache : (Fat_binary.t, string) result Ccache.t = Ccache.create ()

(* The digest is a pure function of the printed program, the machine config
   and the optimizer flag, but pretty-printing a large AST costs tens of
   microseconds — comparable to the whole per-run dispatch floor. Bench
   loops re-run the same [Workload.t] values, so a small per-domain cache
   keyed on physical identity of (prog, cfg) recovers the digest without
   reprinting. Same inputs produce the same hex, so behaviour is
   unchanged. *)
let compile_key_cache :
    (Ast.program * Machine_config.t * bool * string) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compile_key_uncached (options : options) (w : Workload.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Format.asprintf "%a" Ast.pp_program w.prog;
            Marshal.to_string options.cfg [];
            string_of_bool options.optimize;
          ]))

let compile_key (options : options) (w : Workload.t) =
  let cache = Domain.DLS.get compile_key_cache in
  let rec find = function
    | (p, c, o, d) :: _
      when p == w.prog && c == options.cfg && o = options.optimize ->
      Some d
    | _ :: tl -> find tl
    | [] -> None
  in
  match find !cache with
  | Some d -> d
  | None ->
    let d = compile_key_uncached options w in
    let prev = !cache in
    let prev = if List.length prev >= 64 then List.filteri (fun i _ -> i < 63) prev else prev in
    cache := (w.prog, options.cfg, options.optimize, d) :: prev;
    d

let compile obs (options : options) (w : Workload.t) =
  if not options.share_compile then
    Fat_binary.compile ~optimize:options.optimize w.prog
  else begin
    let key = compile_key options w in
    let fb, hit =
      Ccache.find_or_compute compile_cache ~key (fun () ->
          Fat_binary.compile ~optimize:options.optimize w.prog)
    in
    if Obs.on obs then
      Obs.emit obs
        (Trace.Counter
           {
             name = (if hit then "compile_cache.hits" else "compile_cache.misses");
             value = 1.0;
           });
    fb
  end

let compile_cache_stats () =
  (Ccache.hits compile_cache, Ccache.misses compile_cache, Ccache.length compile_cache)

let compile_cache_clear () = Ccache.reset compile_cache

(* Forcing a [Lazy.t] concurrently from two domains is a race in OCaml 5
   (the loser can observe [Lazy.Undefined]); workload inputs are shared
   lazies, so all forcing funnels through one mutex. Reads of an
   already-forced lazy are safe without it. *)
let inputs_lock = Mutex.create ()

let force_inputs (w : Workload.t) =
  Mutex.protect inputs_lock (fun () -> Lazy.force w.inputs)

(* L3 residency tracking across program regions: which arrays currently
   live in the shared cache, and in which layout. Implements the "delayed
   release of transposed data" policy at region granularity (§5.2). *)
module Residency = struct
  type form = Normal | Transposed

  type t = {
    cfg : Machine_config.t;
    tbl : (string, form * float) Hashtbl.t; (* name -> form, bytes *)
    mutable order : string list; (* FIFO for eviction *)
    mutable resident_bytes : float;
    (* count of Transposed entries, maintained incrementally: every
       in-memory touch consults it, and folding the table per touch showed
       up in the dispatch profile *)
    mutable transposed : int;
  }

  let create cfg =
    {
      cfg;
      tbl = Hashtbl.create 8;
      order = [];
      resident_bytes = 0.0;
      transposed = 0;
    }

  let capacity t =
    float_of_int
      (t.cfg.Machine_config.l3_banks * t.cfg.l3_ways * t.cfg.arrays_per_way
      * t.cfg.sram_wordlines * t.cfg.sram_bitlines / 8)

  (* The layout override table holds a fixed number of transposed regions
     (16 in Table 2); exceeding it releases the oldest transposed array
     back to normal layout (§5.2's delayed release / LOT capacity). *)
  let evict_transposed_if_full t =
    while t.transposed >= t.cfg.Machine_config.lot_regions do
      let victim =
        List.find_opt
          (fun name ->
            match Hashtbl.find_opt t.tbl name with
            | Some (Transposed, _) -> true
            | _ -> false)
          t.order
      in
      match victim with
      | Some name ->
        let _, b = Hashtbl.find t.tbl name in
        Hashtbl.replace t.tbl name (Normal, b);
        t.transposed <- t.transposed - 1
      | None -> raise Exit
    done

  let evict_transposed_if_full t =
    try evict_transposed_if_full t with Exit -> ()

  let evict_until t needed =
    while
      t.resident_bytes +. needed > capacity t
      &&
      match t.order with
      | [] -> false
      | victim :: rest ->
        (match Hashtbl.find_opt t.tbl victim with
        | Some (f, b) ->
          Hashtbl.remove t.tbl victim;
          t.resident_bytes <- t.resident_bytes -. b;
          if f = Transposed then t.transposed <- t.transposed - 1
        | None -> ());
        t.order <- rest;
        true
    do
      ()
    done

  (* Returns the DRAM bytes that must be fetched and whether an on-chip
     layout conversion (transpose) is needed. *)
  let touch t name ~bytes ~form =
    (if form = Transposed then
       match Hashtbl.find_opt t.tbl name with
       | Some (Transposed, _) -> () (* re-touch: no new LOT entry *)
       | _ -> evict_transposed_if_full t);
    match Hashtbl.find_opt t.tbl name with
    | Some (f, _) when f = form -> (0.0, false)
    | Some (_, _) ->
      (* resident but in the other layout: convert in place *)
      Hashtbl.replace t.tbl name (form, bytes);
      t.transposed <-
        (t.transposed + if form = Transposed then 1 else -1);
      (0.0, true)
    | None ->
      evict_until t bytes;
      Hashtbl.replace t.tbl name (form, bytes);
      t.order <- t.order @ [ name ];
      t.resident_bytes <- t.resident_bytes +. bytes;
      if form = Transposed then t.transposed <- t.transposed + 1;
      (bytes, form = Transposed)

  (* Core and near-memory accesses work on resident data in either layout:
     the coherence integration lets streams read/write transposed lines
     directly (paper §5.3), so no conversion is charged. *)
  let touch_any t name ~bytes =
    match Hashtbl.find_opt t.tbl name with
    | Some _ -> 0.0
    | None -> fst (touch t name ~bytes ~form:Normal)
end

(* Per-kernel §4.3 verdict aggregation for the report's [decisions] table:
   the first invocation's latencies/reason plus per-target invocation
   counts (a kernel can land on different sides across host-loop
   iterations or fault retries). *)
type decision_acc = {
  d_target : string;
  d_core : float;
  d_imc : float;
  d_reason : string;
  mutable d_counts : (string * int) list;
}

type state = {
  opts : options;
  obs : Obs.t;
  paradigm : paradigm;
  fb : Fat_binary.t;
  env : Interp.env;
  traffic : Traffic.t;
  faults : Fault.injector option;
  mutable fault_retries : int;
  mutable fault_fallbacks : int;
  mutable fault_wasted : float;
  bd : Breakdown.t;
  events : Energy.events;
  memo : Jit.memo;
  layouts : (string, (Layout.t, string) result) Hashtbl.t;
  (* dispatch fast-path caches, all keyed by kernel name: the region's
     live-node ids (the graph is frozen after compile) and the rendered
     layout half of the JIT memo key *)
  lives : (string, Tdfg.id array) Hashtbl.t;
  layout_strs : (string, string) Hashtbl.t;
  residency : Residency.t;
  timeline : (string, (Report.where * float) list) Hashtbl.t;
  mutable timeline_order : string list;
  mutable in_mem_elems : float;
  mutable other_elems : float;
  mutable jit_invocations : int;
  mutable jit_cycles_total : float;
  mutable jit_commands : int;
  mutable jit_nonmemo : int;
  seen_kernels : (string, unit) Hashtbl.t;
  decisions : (string, decision_acc) Hashtbl.t;
  mutable decisions_order : string list;
}

let cfgv st = st.opts.cfg
let profv st = Obs.prof st.obs

(* Every Breakdown charge goes through here and emits one [cycles.<cat>]
   counter event with the identical float, so the trace's per-category
   cycle counters and the metric registry's [cycles{cat}] histograms
   accumulate the identical floats in the identical order — that is what
   lets the trace and metrics tests reconcile against the Report with 0.0
   tolerance. *)
let charge st cat v =
  let bd = st.bd in
  let name =
    match cat with
    | `Dram ->
      bd.Breakdown.dram <- bd.Breakdown.dram +. v;
      "cycles.dram"
    | `Jit ->
      bd.Breakdown.jit <- bd.Breakdown.jit +. v;
      "cycles.jit"
    | `Move ->
      bd.Breakdown.move <- bd.Breakdown.move +. v;
      "cycles.move"
    | `Compute ->
      bd.Breakdown.compute <- bd.Breakdown.compute +. v;
      "cycles.compute"
    | `Final_reduce ->
      bd.Breakdown.final_reduce <- bd.Breakdown.final_reduce +. v;
      "cycles.final_reduce"
    | `Mix ->
      bd.Breakdown.mix <- bd.Breakdown.mix +. v;
      "cycles.mix"
    | `Near_mem ->
      bd.Breakdown.near_mem <- bd.Breakdown.near_mem +. v;
      "cycles.near_mem"
    | `Core ->
      bd.Breakdown.core <- bd.Breakdown.core +. v;
      "cycles.core"
  in
  if Obs.on st.obs then Obs.emit st.obs (Trace.Counter { name; value = v })

(* Per kernel, cycles are accumulated per execution target; the report
   shows the dominant target (a region can change sides across host-loop
   iterations, e.g. gauss's shrinking trailing matrix). *)
let note_timeline st kname where cycles =
  if Obs.on st.obs then
    Obs.emit st.obs
      (Trace.Region_exec
         { kernel = kname; where = Report.where_to_string where; cycles });
  if not (Hashtbl.mem st.timeline kname) then
    st.timeline_order <- st.timeline_order @ [ kname ];
  let prev = Option.value ~default:[] (Hashtbl.find_opt st.timeline kname) in
  let prev =
    if List.mem_assoc where prev then
      List.map
        (fun (w, c) -> if w = where then (w, c +. cycles) else (w, c))
        prev
    else (where, cycles) :: prev
  in
  Hashtbl.replace st.timeline kname prev

let note_decision_raw st kname ~target ~core_cycles ~imc_cycles ~reason =
  match Hashtbl.find_opt st.decisions kname with
  | Some acc ->
    acc.d_counts <-
      (if List.mem_assoc target acc.d_counts then
         List.map
           (fun (t, n) -> if t = target then (t, n + 1) else (t, n))
           acc.d_counts
       else
         List.sort
           (fun (a, _) (b, _) -> compare a b)
           ((target, 1) :: acc.d_counts))
  | None ->
    st.decisions_order <- st.decisions_order @ [ kname ];
    Hashtbl.replace st.decisions kname
      {
        d_target = target;
        d_core = core_cycles;
        d_imc = imc_cycles;
        d_reason = reason;
        d_counts = [ (target, 1) ];
      }

let note_decision st kname (v : Decision.verdict) =
  note_decision_raw st kname
    ~target:(Decision.target_name v.Decision.target)
    ~core_cycles:v.Decision.core_cycles ~imc_cycles:v.Decision.imc_cycles
    ~reason:v.Decision.reason

let concrete_arrays st =
  List.map
    (fun (a : Ast.array_decl) ->
      (a.aname, Interp.array_dims st.env a.aname))
    st.fb.Fat_binary.prog.Ast.arrays

let array_bytes st name =
  let dims = Interp.array_dims st.env name in
  float_of_int (List.fold_left ( * ) 1 dims * 4)

(* ---- cross-run invocation cache ----

   The concrete workset of an invocation, the resolved live-node domains,
   and the domain part of the JIT memo key are pure functions of (region,
   values of the integer variables they read). Bench loops re-execute
   identical invocations thousands of times, and host loops (e.g. gauss's
   64 eliminations) revisit the same variable values run after run — so
   each region carries a table keyed on the evaluated variable vector, and
   a repeat dispatch reduces to evaluating a handful of integers plus one
   lookup. The variable sets are derived from the same symbolic bounds the
   direct path would evaluate, so a hit returns exactly what recomputation
   would. Per-domain (DLS) for race freedom under the batch pool; bounded
   by reset. *)

module Svars = Set.Make (String)

type inv_entry = {
  ie_region : Fat_binary.region; (* physical identity is the cache key *)
  mutable ie_ws_vars : string array option;
  ie_ws : (int array, Workset.t) Hashtbl.t;
  mutable ie_dom_vars : string array option;
  ie_doms : (int array, Hyperrect.t option array * string) Hashtbl.t;
  ie_lays : (int array, (Layout.t, string) result) Hashtbl.t;
}

let inv_cache : inv_entry list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let inv_cache_max_regions = 256
let inv_cache_max_entries = 4096

let inv_entry_of (region : Fat_binary.region) =
  let slot = Domain.DLS.get inv_cache in
  let rec find = function
    | e :: _ when e.ie_region == region -> Some e
    | _ :: tl -> find tl
    | [] -> None
  in
  match find !slot with
  | Some e -> e
  | None ->
    let e =
      {
        ie_region = region;
        ie_ws_vars = None;
        ie_ws = Hashtbl.create 32;
        ie_dom_vars = None;
        ie_doms = Hashtbl.create 32;
        ie_lays = Hashtbl.create 8;
      }
    in
    let prev = if List.length !slot >= inv_cache_max_regions then [] else !slot in
    slot := e :: prev;
    e

let add_aff_vars acc a =
  List.fold_left (fun acc v -> Svars.add v acc) acc (Symaff.vars a)

(* Variables the workset resolution reads: host-loop bounds, symbolic
   distinct extents, and — for streams whose footprint falls back to the
   whole array — the array declaration's dimension expressions. *)
let ws_vars_of st (region : Fat_binary.region) =
  let info = region.info in
  let acc =
    List.fold_left
      (fun acc (lo, hi) -> add_aff_vars (add_aff_vars acc lo) hi)
      Svars.empty info.Kernel_info.loops
  in
  let acc =
    List.fold_left
      (fun acc (s : Kernel_info.stream) ->
        match s.distinct with
        | Some extents -> List.fold_left add_aff_vars acc extents
        | None -> (
          match
            List.find_opt
              (fun (a : Ast.array_decl) -> a.aname = s.array)
              st.fb.Fat_binary.prog.Ast.arrays
          with
          | Some decl -> List.fold_left add_aff_vars acc decl.dims
          | None -> acc))
      acc info.Kernel_info.streams
  in
  Array.of_list (Svars.elements acc)

let eval_vars st (vars : string array) =
  Array.map (fun v -> Interp.lookup_int st.env v) vars

let workset_of st (region : Fat_binary.region) =
  let e = inv_entry_of region in
  let vars =
    match e.ie_ws_vars with
    | Some v -> v
    | None ->
      let v = ws_vars_of st region in
      e.ie_ws_vars <- Some v;
      v
  in
  let vals = eval_vars st vars in
  match Hashtbl.find_opt e.ie_ws vals with
  | Some w -> w
  | None ->
    let w =
      Workset.resolve region.info ~env:(Interp.lookup_int st.env)
        ~arrays:(concrete_arrays st)
    in
    if Hashtbl.length e.ie_ws >= inv_cache_max_entries then Hashtbl.reset e.ie_ws;
    Hashtbl.replace e.ie_ws vals w;
    w

(* ----- core / near-memory execution of one kernel invocation ----- *)

(* The three execution paths each wrap their body in a profiler span
   ("core" / "near" / "imc"). Every invocation calls [note_timeline]
   exactly once, so each span's call count equals the trace's
   [Region_exec] event count (and the metrics [regions.<where>] counter)
   for its target — the reconciliation the profiler tests pin. *)

(* [w] is the invocation's resolved workset, computed once per [on_kernel]
   dispatch and shared by every execution path (the resolution is a pure
   function of the region and the parameter environment, which does not
   change within an invocation). *)
let run_core_body st ~threads ~(w : Workset.t) (region : Fat_binary.region) =
  let cold =
    Array.fold_left
      (fun acc (s : Workset.stream) ->
        let bytes = Float.min s.distinct_bytes (array_bytes st s.array) in
        acc +. Residency.touch_any st.residency s.array ~bytes)
      0.0 w.streams
  in
  let first_invocation =
    not (Hashtbl.mem st.seen_kernels region.kernel.Ast.kname)
  in
  Hashtbl.replace st.seen_kernels region.kernel.Ast.kname ();
  let r =
    Corem.run (cfgv st) st.traffic w ~threads ~cold_bytes:cold ~first_invocation
  in
  if cold > 0.0 && Obs.on st.obs then
    Obs.emit st.obs (Trace.Dram_burst { bytes = cold; cycles = r.Corem.dram_cycles });
  charge st `Core (r.Corem.cycles -. r.dram_cycles);
  charge st `Dram r.dram_cycles;
  st.events.Energy.core_flops <- st.events.Energy.core_flops +. w.flops;
  st.events.Energy.dram_bytes <- st.events.Energy.dram_bytes +. cold;
  st.events.Energy.l3_bytes <- st.events.Energy.l3_bytes +. Workset.touched_bytes w;
  st.other_elems <- st.other_elems +. w.flops;
  note_timeline st region.kernel.Ast.kname Report.On_core r.Corem.cycles;
  if st.opts.functional then Interp.exec_kernel st.env region.kernel

let run_core st ~threads ~w region =
  Prof.span (profv st) "core" (fun () -> run_core_body st ~threads ~w region)

(* Returns [false] when the watchdog detected a hung stream engine: the
   attempt's cycles were charged (and are wasted), and the kernel's
   functional effect has NOT been applied — the caller must retry or fall
   back so it is applied exactly once. *)
let run_near_body st ~(w : Workset.t) (region : Fat_binary.region) =
  let cold =
    Array.fold_left
      (fun acc (s : Workset.stream) ->
        let bytes = Float.min s.distinct_bytes (array_bytes st s.array) in
        acc +. Residency.touch_any st.residency s.array ~bytes)
      0.0 w.streams
  in
  let r = Near.run (cfgv st) st.traffic w ~cold_bytes:cold in
  charge st `Near_mem (r.Near.cycles -. r.dram_cycles);
  charge st `Dram r.dram_cycles;
  st.events.Energy.sel3_flops <- st.events.Energy.sel3_flops +. w.flops;
  st.events.Energy.dram_bytes <- st.events.Energy.dram_bytes +. cold;
  st.events.Energy.l3_bytes <- st.events.Energy.l3_bytes +. Workset.touched_bytes w;
  st.other_elems <- st.other_elems +. w.flops;
  note_timeline st region.kernel.Ast.kname Report.Near_mem r.Near.cycles;
  if r.Near.watchdog then false
  else begin
    if st.opts.functional then Interp.exec_kernel st.env region.kernel;
    true
  end

let run_near st ~w region =
  Prof.span (profv st) "near" (fun () -> run_near_body st ~w region)

(* ----- in-memory execution ----- *)

(* Lattice shape the layout must tile. Arrays are anchored at the origin;
   the compute region's extent per dimension is the larger of the output
   arrays' extents (via their axis maps) and the bounding box of the
   computed (non-source-view) node domains. Source tensor views are
   excluded: a fixed-coordinate view (e.g. a weight row at a large
   flattened index) is broadcast into the compute region and its own
   lattice position is immaterial. Oversized regions execute in waves. *)
let region_shape st (region : Fat_binary.region) =
  let g = region.optimized in
  let n = Tdfg.lattice_dims g in
  let shape = Array.make n 1 in
  let consider_axes array axes =
    let dims = Interp.array_dims st.env array in
    List.iteri
      (fun j d -> shape.(d) <- max shape.(d) (List.nth dims j))
      axes
  in
  List.iter
    (fun id ->
      match Tdfg.kind g id with
      | Tdfg.Tensor _ | Tdfg.Const _ -> ()
      | Tdfg.Stream_load _ | Tdfg.Cmp _ | Tdfg.Mv _ | Tdfg.Bc _ | Tdfg.Shrink _
      | Tdfg.Reduce _ -> begin
        match Tdfg.domain g id with
        | Tdfg.Finite r ->
          let rect = Symrect.resolve r (Interp.lookup_int st.env) in
          for d = 0 to n - 1 do
            shape.(d) <- max shape.(d) (Hyperrect.hi rect d)
          done
        | Tdfg.Infinite -> ()
      end)
    (Tdfg.live_nodes g);
  List.iter
    (function
      | Tdfg.Out_tensor { array; axes; _ } -> consider_axes array axes
      | Tdfg.Out_stream _ -> ())
    (Tdfg.outputs g);
  shape

(* Live-node ids of a region, computed once per kernel per run (the
   optimized graph never changes after compile). *)
let lives_of st (region : Fat_binary.region) =
  let k = region.kernel.Ast.kname in
  match Hashtbl.find_opt st.lives k with
  | Some a -> a
  | None ->
    let a = Array.of_list (Tdfg.live_nodes region.optimized) in
    Hashtbl.replace st.lives k a;
    a

(* Variables a live finite-node domain reads — the inputs of both the
   domain-resolution sweep ([doms_of]) and the lattice shape the layout
   tiles ([region_shape] resolves a subset of the same domains). *)
let dom_vars_of (region : Fat_binary.region) (live : Tdfg.id array) =
  let g = region.optimized in
  let acc =
    Array.fold_left
      (fun acc id ->
        match Tdfg.domain g id with
        | Tdfg.Finite r ->
          List.fold_left
            (fun acc (lo, hi) -> add_aff_vars (add_aff_vars acc lo) hi)
            acc (Symrect.ranges r)
        | Tdfg.Infinite -> acc)
      Svars.empty live
  in
  Array.of_list (Svars.elements acc)

let dom_vars_cached (region : Fat_binary.region) (live : Tdfg.id array) e =
  match e.ie_dom_vars with
  | Some v -> v
  | None ->
    let v = dom_vars_of region live in
    e.ie_dom_vars <- Some v;
    v

(* The concrete inputs of [region_shape] + [Layout.choose] for a given
   region: values of the variables its domains read, the resolved
   out-tensor dims, and the tile override. cfg, hints, and dtype are
   fixed per region (the compile cache keys fat binaries on the config),
   so equal keys imply an identical layout choice. *)
let lay_key st (region : Fat_binary.region) (live : Tdfg.id array) e =
  let vals = eval_vars st (dom_vars_cached region live e) in
  let dims =
    List.concat_map
      (function
        | Tdfg.Out_tensor { array; _ } -> Interp.array_dims st.env array
        | Tdfg.Out_stream _ -> [])
      (Tdfg.outputs region.optimized)
  in
  let tile = match st.opts.tile_override with Some t -> t | None -> [||] in
  Array.concat
    [ vals; [| Array.length tile |]; tile; Array.of_list dims ]

let layout_for st (region : Fat_binary.region) ~live =
  let key = region.kernel.Ast.kname in
  match Hashtbl.find_opt st.layouts key with
  | Some l -> l
  | None ->
    let e = inv_entry_of region in
    let k = lay_key st region live e in
    let l =
      match Hashtbl.find_opt e.ie_lays k with
      | Some l -> l
      | None ->
        let shape = region_shape st region in
        let elems_per_line =
          (cfgv st).Machine_config.line_bytes
          / Dtype.bytes (Tdfg.dtype region.optimized)
        in
        let l =
          match st.opts.tile_override with
          | Some tile when Array.length tile = Array.length shape ->
            Layout.of_tile (cfgv st) ~shape ~tile
          | Some _ | None ->
            (* overrides only apply to regions of the same rank (sweeps) *)
            Layout.choose (cfgv st) ~hints:region.hints ~shape ~elems_per_line
        in
        if Hashtbl.length e.ie_lays >= inv_cache_max_entries then
          Hashtbl.reset e.ie_lays;
        Hashtbl.replace e.ie_lays k l;
        l
    in
    Hashtbl.replace st.layouts key l;
    l

(* Resolved domain of every live node, indexed by node id — one resolution
   sweep per invocation, shared by the Eq. 2 [elems] estimate, the JIT
   memo-key signature, and the lowering itself (which previously each
   re-resolved the whole graph). Returns the doms array plus the memo-key
   domain signature (the concatenated per-node [Hyperrect.buf_add] bytes),
   both cached across runs in the invocation cache keyed on the values of
   the variables the domains read. *)
let doms_of st (region : Fat_binary.region) (live : Tdfg.id array) =
  let e = inv_entry_of region in
  let vals = eval_vars st (dom_vars_cached region live e) in
  match Hashtbl.find_opt e.ie_doms vals with
  | Some r -> r
  | None ->
    let g = region.optimized in
    let doms = Array.make (Tdfg.node_count g) None in
    let env = Interp.lookup_int st.env in
    Array.iter
      (fun id ->
        match Tdfg.domain g id with
        | Tdfg.Finite r -> doms.(id) <- Some (Symrect.resolve r env)
        | Tdfg.Infinite -> ())
      live;
    let buf = Buffer.create 96 in
    Array.iter
      (fun id ->
        match doms.(id) with
        | Some rect -> Hyperrect.buf_add buf rect
        | None -> ())
      live;
    let r = (doms, Buffer.contents buf) in
    if Hashtbl.length e.ie_doms >= inv_cache_max_entries then
      Hashtbl.reset e.ie_doms;
    Hashtbl.replace e.ie_doms vals r;
    r

let layout_str st (region : Fat_binary.region) layout =
  let k = region.kernel.Ast.kname in
  match Hashtbl.find_opt st.layout_strs k with
  | Some s -> s
  | None ->
    let s = Layout.to_string layout in
    Hashtbl.replace st.layout_strs k s;
    s

(* The JIT memo key: kernel name + resolved lattice domains + layout,
   '|'-separated — byte-identical to the former
   [Printf.sprintf "%s|%s|%s"] over a per-node [Hyperrect.to_string]
   signature (resolved bounds of runtime scalars are irrelevant to
   lowering; the key covers exactly the inputs lowering depends on). *)
let memo_key st (region : Fat_binary.region) layout ~dsig =
  let buf = Buffer.create 96 in
  Buffer.add_string buf region.kernel.Ast.kname;
  Buffer.add_char buf '|';
  Buffer.add_string buf dsig;
  Buffer.add_char buf '|';
  Buffer.add_string buf (layout_str st region layout);
  Buffer.contents buf

(* Near-memory (or core) cost of the embedded streams and final reduce of
   an in-memory region. *)
let hybrid_cost st ~stream_elems ~final_reduce_elems =
  let cfg = cfgv st in
  let banks = float_of_int cfg.Machine_config.l3_banks in
  let avg_hops = Machine_config.avg_hops cfg in
  match st.paradigm with
  | In_l3 ->
    (* no near-memory support: cores pull the stream data and partials
       through the NoC *)
    let elems = stream_elems +. final_reduce_elems in
    let bytes = elems *. 4.0 in
    if bytes > 0.0 then begin
      Traffic.add st.traffic Traffic.Data ~bytes ~hops:avg_hops;
      Traffic.add st.traffic Traffic.Control ~bytes:(bytes /. 4.0) ~hops:avg_hops
    end;
    let cycles =
      Traffic.bulk_cycles_in st.traffic ~detail:"hybrid-core" ~bytes ~avg_hops
      +. (elems /. Machine_config.peak_simd_flops_per_cycle cfg)
    in
    st.events.Energy.core_flops <- st.events.Energy.core_flops +. elems;
    `Core cycles
  | _ ->
    (* SEL3 streams handle them near the banks *)
    let stream_cycles =
      stream_elems /. (banks *. cfg.Machine_config.sel3_flops_per_cycle)
    in
    let fr_cycles =
      final_reduce_elems /. (banks *. cfg.Machine_config.sel3_flops_per_cycle)
    in
    if final_reduce_elems > 0.0 then
      Traffic.add st.traffic Traffic.Offload
        ~bytes:(final_reduce_elems *. 4.0 /. 8.0)
        ~hops:avg_hops;
    st.events.Energy.sel3_flops <-
      st.events.Energy.sel3_flops +. stream_elems +. final_reduce_elems;
    `Near (stream_cycles, fr_cycles)

let run_in_memory_body st ~w ~doms ~dsig (region : Fat_binary.region)
    (layout : Layout.t) (schedule : Schedule.t) =
  let cfg = cfgv st in
  let g = region.optimized in
  (* 1. prepare transposed data (only the touched region of each array) *)
  let touched_of a =
    match
      Array.find_opt (fun (s : Workset.stream) -> s.array = a) w.Workset.streams
    with
    | Some s -> Float.min s.distinct_bytes (array_bytes st a)
    | None -> array_bytes st a
  in
  let arrays = region.hints.Fat_binary.aligned_arrays in
  let write_only a =
    Array.exists
      (fun (s : Workset.stream) -> s.array = a && s.direction = Kernel_info.Write)
      w.Workset.streams
  in
  let dram_bytes = ref 0.0 and transpose_bytes = ref 0.0 in
  List.iter
    (fun a ->
      let bytes = touched_of a in
      let dram, transposed =
        Residency.touch st.residency a ~bytes ~form:Residency.Transposed
      in
      (* a fully overwritten array is laid out transposed without a fetch *)
      if not (write_only a) then dram_bytes := !dram_bytes +. dram;
      if transposed && not (write_only a) then
        transpose_bytes := !transpose_bytes +. bytes)
    arrays;
  let prep =
    Float.max
      (Dram.load_traced ?faults:st.faults st.obs cfg ~bytes:!dram_bytes)
      (Dram.transpose_traced ?faults:st.faults st.obs cfg ~bytes:!transpose_bytes)
  in
  charge st `Dram prep;
  st.events.Energy.dram_bytes <- st.events.Energy.dram_bytes +. !dram_bytes;
  st.events.Energy.l3_bytes <- st.events.Energy.l3_bytes +. !transpose_bytes;
  (* 2. JIT lower (memoized) *)
  let key = memo_key st region layout ~dsig in
  let cmds, jst =
    (* span count == [jit_invocations] (memo hits included — the memoized
       lookup is itself JIT-phase work) *)
    Prof.span (profv st) "jit" (fun () ->
        Jit.lower_memo ~obs:st.obs ~doms st.memo ~key cfg g ~schedule
          ~layout
          ~env:(Interp.lookup_int st.env))
  in
  st.jit_invocations <- st.jit_invocations + 1;
  if not jst.Jit.memoized then begin
    st.jit_nonmemo <- st.jit_nonmemo + 1;
    st.jit_commands <- st.jit_commands + jst.Jit.commands
  end;
  let jit_cycles =
    if st.opts.charge_jit && st.paradigm <> Inf_s_nojit then jst.Jit.jit_cycles
    else 0.0
  in
  st.jit_cycles_total <- st.jit_cycles_total +. jit_cycles;
  charge st `Jit jit_cycles;
  (* 3. execute commands *)
  let r = Imc.execute cfg st.traffic ~layout:(Layout.imc_view layout) cmds in
  charge st `Move (r.Imc.move_cycles +. r.sync_cycles);
  charge st `Compute r.Imc.compute_cycles;
  st.events.Energy.sram_array_cycles <-
    st.events.Energy.sram_array_cycles +. r.Imc.sram_array_cycles;
  st.in_mem_elems <- st.in_mem_elems +. jst.Jit.compute_elems;
  if r.Imc.faulted then begin
    (* an SRAM bit flip aborted the region mid-execution: the prep / JIT /
       partial command cycles above stay charged (they were really spent);
       the functional effect is NOT applied — the caller retries or
       re-targets so it is applied exactly once *)
    note_timeline st region.kernel.Ast.kname Report.In_mem
      (prep +. jit_cycles +. r.Imc.move_cycles +. r.sync_cycles
     +. r.Imc.compute_cycles);
    false
  end
  else begin
    (* 4. embedded streams + final reduce *)
    let stream_elems = jst.Jit.stream_load_elems +. jst.Jit.stream_store_elems in
    let hybrid_cycles =
      match hybrid_cost st ~stream_elems ~final_reduce_elems:jst.Jit.final_reduce_elems with
      | `Core c ->
        charge st `Core c;
        c
      | `Near (sc, fc) ->
        charge st `Mix sc;
        charge st `Final_reduce fc;
        sc +. fc
    in
    st.other_elems <- st.other_elems +. stream_elems +. jst.Jit.final_reduce_elems;
    let total =
      prep +. jit_cycles +. r.Imc.move_cycles +. r.sync_cycles
      +. r.Imc.compute_cycles +. hybrid_cycles
    in
    note_timeline st region.kernel.Ast.kname Report.In_mem total;
    (* 5. functional evaluation through the tDFG *)
    if st.opts.functional then Tdfg_eval.eval g st.env;
    true
  end

let run_in_memory st ~w ~doms ~dsig region layout schedule =
  Prof.span (profv st) "imc" (fun () ->
      run_in_memory_body st ~w ~doms ~dsig region layout schedule)

(* ----- fault mitigation ----- *)

let fault_note st ~site ~action ~detail ~cycles =
  if Obs.on st.obs then Obs.emit st.obs (Trace.Fault { site; action; detail; cycles })

(* Bounded retry loop around one kernel attempt. [f ()] returns success;
   a failed attempt's Breakdown delta is wasted time — accounted, traced,
   and retried up to the spec's bound before [fallback] re-targets the
   region (§4.3 machinery in reverse: the runtime re-lowers to the next
   paradigm down, which for core execution never faults, so every kernel
   terminates). *)
let with_retries st fi ~site ~kname f ~fallback =
  let rec go attempt =
    let before = Breakdown.total st.bd in
    if f () then ()
    else begin
      let wasted = Breakdown.total st.bd -. before in
      st.fault_wasted <- st.fault_wasted +. wasted;
      if attempt < Fault.max_retries fi then begin
        st.fault_retries <- st.fault_retries + 1;
        fault_note st ~site ~action:"retry" ~detail:kname ~cycles:wasted;
        go (attempt + 1)
      end
      else begin
        st.fault_fallbacks <- st.fault_fallbacks + 1;
        fault_note st ~site ~action:"fallback" ~detail:kname ~cycles:wasted;
        fallback ()
      end
    end
  in
  go 0

(* Near-memory with watchdog mitigation: retry the offload, then fall back
   to core execution (cores use the reliable demand-paging path and never
   fault — the termination guarantee). *)
let exec_near st ~w (region : Fat_binary.region) =
  match st.faults with
  | None -> ignore (run_near st ~w region : bool)
  | Some fi ->
    let kname = region.Fat_binary.kernel.Ast.kname in
    with_retries st fi ~site:"watchdog" ~kname
      (fun () -> run_near st ~w region)
      ~fallback:(fun () ->
        Decision.fault_fallback ~obs:st.obs ~kernel:kname ~site:"watchdog" ~target:"core" ();
        run_core st ~threads:(cfgv st).Machine_config.cores ~w region)

(* In-memory with SRAM-flip mitigation: retry (residency and the JIT memo
   make retries much cheaper than first attempts), then re-lower the region
   to the paradigm's fallback target — near-memory for Inf-S, core for
   In-L3 — via the same §4.3 decision machinery, visibly in the trace. *)
let exec_in_memory st ~w ~doms ~dsig (region : Fat_binary.region) layout
    schedule =
  match st.faults with
  | None -> ignore (run_in_memory st ~w ~doms ~dsig region layout schedule : bool)
  | Some fi ->
    let kname = region.Fat_binary.kernel.Ast.kname in
    with_retries st fi ~site:"sram" ~kname
      (fun () -> run_in_memory st ~w ~doms ~dsig region layout schedule)
      ~fallback:(fun () ->
        let target = if st.paradigm = In_l3 then "core" else "near-memory" in
        Decision.fault_fallback ~obs:st.obs ~kernel:kname ~site:"sram" ~target ();
        if st.paradigm = In_l3 then
          run_core st ~threads:(cfgv st).Machine_config.cores ~w region
        else exec_near st ~w region)

(* ----- per-kernel dispatch ----- *)

let on_kernel st _env (k : Ast.kernel) =
  let region =
    match Fat_binary.region_of st.fb k.Ast.kname with
    | Some r -> r
    | None -> failwith ("unknown kernel region " ^ k.Ast.kname)
  in
  let w = workset_of st region in
  match st.paradigm with
  | Base_1 -> run_core st ~threads:1 ~w region
  | Base -> run_core st ~threads:(cfgv st).Machine_config.cores ~w region
  | Near_l3 -> exec_near st ~w region
  | In_l3 | Inf_s | Inf_s_nojit -> begin
    let fallback () =
      if st.paradigm = In_l3 then
        run_core st ~threads:(cfgv st).Machine_config.cores ~w region
      else exec_near st ~w region
    in
    (* regions that never reach Eq. 2 still get a row in the report's
       decision table; no trace event is emitted (the decision machinery
       did not run), so golden traces are unchanged *)
    let fallback_noted reason =
      note_decision_raw st k.Ast.kname
        ~target:(if st.paradigm = In_l3 then "core" else "near-memory")
        ~core_cycles:0.0 ~imc_cycles:0.0 ~reason;
      fallback ()
    in
    match region.fallback with
    | Some _ ->
      fallback_noted "scalar fallback: region not expressible as a tDFG"
    | None -> begin
      match List.assoc_opt (cfgv st).Machine_config.sram_wordlines region.schedules with
      | None -> fallback_noted "no schedule for the configured SRAM wordlines"
      | Some schedule -> begin
        let live = lives_of st region in
        match layout_for st region ~live with
        | Error e -> fallback_noted ("no valid transposed layout: " ^ e)
        | Ok layout ->
          let g = region.optimized in
          let doms, dsig = doms_of st region live in
          let decide ov =
            let elems =
              (* data parallelism: the largest finite node domain. Computed
                 here (not at dispatch) so the In-L3 default path, which
                 never consults Eq. 2, skips the volume sweep entirely. *)
              Array.fold_left
                (fun acc id ->
                  match doms.(id) with
                  | Some rect ->
                    Float.max acc (float_of_int (Hyperrect.volume rect))
                  | None -> acc)
                1.0 live
            in
            (* span count == [Offload_decision] trace events: this is the
               only caller of [Decision.decide] in the engine *)
            Prof.span (profv st) "decide" (fun () ->
                Decision.decide ~obs:st.obs ~kernel:k.Ast.kname
                  ~override:ov (cfgv st)
                  ~ops:(Tdfg.op_multiset g)
                  ~node_count:(Tdfg.node_count g) ~dtype:(Tdfg.dtype g) ~elems
                  ~flops:w.Workset.flops
                  ~data_bytes:(Workset.touched_bytes w) ~fits:true
                  ~jit_known:
                    (st.paradigm = Inf_s_nojit || not st.opts.charge_jit))
          in
          let override =
            Decision.resolve st.opts.decision_policy ~kernel:k.Ast.kname
          in
          if st.paradigm = In_l3 then begin
            (* In-L3 has no near-memory support and always offloads
               expressible regions to the SRAMs; only a tuned force-core
               override diverts a region back to the cores (Force_imc is
               the default behavior). The default path never consults
               Eq. 2, keeping traces and reports byte-identical. *)
            match override with
            | Decision.Auto | Decision.Force_imc ->
              exec_in_memory st ~w ~doms ~dsig region layout schedule
            | Decision.Force_core ->
              note_decision st k.Ast.kname (decide Decision.Force_core);
              fallback ()
          end
          else begin
            let verdict = decide override in
            note_decision st k.Ast.kname verdict;
            Logs.debug (fun m ->
                m "eq2 %s: core=%.3e imc=%.3e -> %s" k.Ast.kname
                  verdict.Decision.core_cycles verdict.imc_cycles
                  (match verdict.target with
                  | Decision.In_memory -> "in-mem"
                  | Decision.Near_memory -> "near"));
            match verdict.Decision.target with
            | Decision.In_memory -> exec_in_memory st ~w ~doms ~dsig region layout schedule
            | Decision.Near_memory -> fallback ()
          end
      end
    end
  end

(* ----- correctness check ----- *)

let golden_arrays (w : Workload.t) =
  match
    Interp.run_program w.prog ~params:w.params ~inputs:(force_inputs w)
  with
  | Ok arrays -> arrays
  | Error e -> failwith ("golden run failed: " ^ e)

let max_err st (w : Workload.t) =
  let golden = golden_arrays w in
  List.fold_left
    (fun acc name ->
      let got = Interp.get_array st.env name in
      let want = List.assoc name golden in
      let err = ref 0.0 in
      Array.iteri
        (fun i v ->
          let d = Float.abs (v -. want.(i)) in
          let scale = Float.max 1.0 (Float.abs want.(i)) in
          err := Float.max !err (d /. scale))
        got;
      Float.max acc !err)
    0.0 w.check_arrays

(* ----- entry point ----- *)

let run_with obs options paradigm (w : Workload.t) =
  match Prof.span options.prof "compile" (fun () -> compile obs options w) with
  | Error e -> Error e
  | Ok fb -> begin
    match Interp.create w.prog ~params:w.params with
    | Error e -> Error e
    | Ok env ->
      if options.functional then
        List.iter (fun (n, d) -> Interp.set_array env n d) (force_inputs w);
      (* The injector's streams are seeded from the spec and a scope that
         depends only on the workload and paradigm — never on scheduling —
         so identical seeds yield byte-identical reports at any --jobs
         count. [Fault.none] (the default) installs no injector at all:
         zero draws, zero overhead beyond one option match per hook. *)
      let faults =
        if Fault.is_none options.faults then None
        else
          Some
            (Fault.create options.faults
               ~scope:(w.wname ^ "|" ^ paradigm_to_string paradigm))
      in
      let st =
        {
          opts = options;
          obs;
          paradigm;
          fb;
          env;
          traffic = Traffic.create ~obs ?faults options.cfg;
          faults;
          fault_retries = 0;
          fault_fallbacks = 0;
          fault_wasted = 0.0;
          bd = Breakdown.zero ();
          events = Energy.fresh ();
          memo = Jit.memo_create ();
          layouts = Hashtbl.create 8;
          lives = Hashtbl.create 8;
          layout_strs = Hashtbl.create 8;
          residency = Residency.create options.cfg;
          timeline = Hashtbl.create 8;
          timeline_order = [];
          in_mem_elems = 0.0;
          other_elems = 0.0;
          jit_invocations = 0;
          jit_cycles_total = 0.0;
          jit_commands = 0;
          jit_nonmemo = 0;
          seen_kernels = Hashtbl.create 16;
          decisions = Hashtbl.create 8;
          decisions_order = [];
        }
      in
      if options.warm_data then begin
        (* data resident in L3 ("already tiled to fit", §6); in-memory
           paradigms still pay the transposition unless [pre_transposed]
           (Fig. 2's assumption) *)
        let form =
          match paradigm with
          | (In_l3 | Inf_s | Inf_s_nojit) when options.pre_transposed ->
            Residency.Transposed
          | _ -> Residency.Normal
        in
        List.iter
          (fun (a : Ast.array_decl) ->
            ignore
              (Residency.touch st.residency a.aname
                 ~bytes:(array_bytes st a.aname) ~form))
          w.prog.Ast.arrays
      end;
      (try
         Prof.span options.prof "run" (fun () ->
             Interp.run ~on_kernel:(on_kernel st) env);
         Energy.of_traffic st.events st.traffic;
         let cycles = Breakdown.total st.bd in
         let correctness =
           if options.functional then `Checked (max_err st w) else `Skipped
         in
         let cats =
           [
             ("control", Traffic.Control);
             ("data", Traffic.Data);
             ("offload", Traffic.Offload);
             ("inter-tile", Traffic.Inter_tile);
           ]
         in
         let jit : Report.jit_summary =
           {
             invocations = st.jit_invocations;
             memo_hits = Jit.memo_hits st.memo;
             total_commands = st.jit_commands;
             total_jit_cycles = st.jit_cycles_total;
             avg_us =
               (if st.jit_nonmemo = 0 then 0.0
                else
                  Machine_config.cycles_to_us options.cfg
                    (st.jit_cycles_total /. float_of_int st.jit_nonmemo));
           }
         in
         Ok
           {
             Report.workload = w.wname;
             paradigm = paradigm_to_string paradigm;
             cycles;
             breakdown = st.bd;
             noc_bytes =
               List.map (fun (n, c) -> (n, Traffic.bytes st.traffic c)) cats;
             noc_byte_hops =
               List.map (fun (n, c) -> (n, Traffic.byte_hops st.traffic c)) cats;
             local_bytes =
               [
                 ("intra-tile", Traffic.local_bytes st.traffic `Intra_tile);
                 ("htree", Traffic.local_bytes st.traffic `Htree);
               ];
             noc_utilization = Traffic.utilization st.traffic ~cycles;
             energy = Energy.total st.events;
             energy_breakdown = Energy.breakdown st.events;
             jit;
             timeline =
               List.map
                 (fun k ->
                   let parts = Hashtbl.find st.timeline k in
                   let where, _ =
                     List.fold_left
                       (fun (bw, bc) (w, c) -> if c > bc then (w, c) else (bw, bc))
                       (fst (List.hd parts), -1.0)
                       parts
                   in
                   let cyc = List.fold_left (fun a (_, c) -> a +. c) 0.0 parts in
                   { Report.kernel = k; where; cycles = cyc })
                 st.timeline_order;
             in_mem_op_fraction =
               (let total = st.in_mem_elems +. st.other_elems in
                if total <= 0.0 then 0.0 else st.in_mem_elems /. total);
             correctness;
             decisions =
               List.map
                 (fun kname ->
                   let acc = Hashtbl.find st.decisions kname in
                   {
                     Report.kernel = kname;
                     target = acc.d_target;
                     core_cycles = acc.d_core;
                     imc_cycles = acc.d_imc;
                     reason = acc.d_reason;
                     verdicts = acc.d_counts;
                   })
                 st.decisions_order;
             faults =
               (match st.faults with
               | None -> None
               | Some fi ->
                 Some
                   {
                     Report.spec = Fault.to_string (Fault.spec_of fi);
                     injected =
                       List.map
                         (fun s -> (Fault.site_name s, Fault.injected fi s))
                         Fault.all_sites;
                     draws = Fault.draws fi;
                     retries = st.fault_retries;
                     fallbacks = st.fault_fallbacks;
                     wasted_cycles = st.fault_wasted;
                     degraded = Fault.total_injected fi > 0;
                   });
           }
       with Failure e -> Error e)
  end

(* Root span "engine": profile paths read
   engine;compile / engine;run;{core,near,imc,decide} /
   engine;run;imc;{jit,imc.execute,dram.*} and so on. *)
let run ?(options = default_options) paradigm (w : Workload.t) =
  let cfg = options.cfg in
  let geometry =
    { Metrics.mesh_x = cfg.mesh_x; mesh_y = cfg.mesh_y; banks = cfg.l3_banks; channels = cfg.mem_ctrls }
  in
  let obs = Obs.create ~trace:options.trace ~metrics:options.metrics ~prof:options.prof ~geometry in
  Prof.span options.prof "engine" (fun () -> run_with obs options paradigm w)

let run_exn ?options paradigm w =
  match run ?options paradigm w with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "Engine.run %s: %s" w.Workload.wname e)
