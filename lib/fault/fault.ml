type site = Sram | Noc | Dram | Watchdog

let site_name = function
  | Sram -> "sram"
  | Noc -> "noc"
  | Dram -> "dram"
  | Watchdog -> "watchdog"

let all_sites = [ Sram; Noc; Dram; Watchdog ]
let site_index = function Sram -> 0 | Noc -> 1 | Dram -> 2 | Watchdog -> 3

type spec = {
  seed : int;
  sram_flip : float;
  noc_degrade : float;
  noc_jitter : float;
  dram_stall : float;
  dram_stall_cycles : float;
  watchdog : float;
  max_retries : int;
}

let none =
  {
    seed = 0;
    sram_flip = 0.0;
    noc_degrade = 0.0;
    noc_jitter = 2.0;
    dram_stall = 0.0;
    dram_stall_cycles = 2048.0;
    watchdog = 0.0;
    max_retries = 2;
  }

let is_none s = s = none

let to_string s =
  Printf.sprintf
    "seed=%d,sram=%g,noc=%g,jitter=%g,dram=%g,stall=%g,watchdog=%g,retries=%d"
    s.seed s.sram_flip s.noc_degrade s.noc_jitter s.dram_stall
    s.dram_stall_cycles s.watchdog s.max_retries

(* The stated ranges. Every value must be finite and inside its range:
   the caps keep a run's cycles finite and its retry loop short (each
   retry re-runs a kernel attempt, and a job's domain is never
   interrupted). *)
let max_jitter = 4.0
let max_stall_cycles = 8192.0
let retries_cap = 4

let parse str =
  let ( let* ) = Result.bind in
  let range key v ~lo ~hi =
    match float_of_string_opt v with
    | Some f when Float.is_finite f && f >= lo && f <= hi -> Ok f
    | _ -> Error (Printf.sprintf "faults: %s must be a finite number in [%g, %g], got %S" key lo hi v)
  in
  let prob key v = range key v ~lo:0.0 ~hi:1.0 in
  let fields =
    String.split_on_char ',' str
    |> List.filter (fun f -> String.trim f <> "")
  in
  let step acc field =
    let* acc = acc in
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "faults: expected key=value, got %S" field)
    | Some i ->
        let key = String.trim (String.sub field 0 i) in
        let v = String.trim (String.sub field (i + 1) (String.length field - i - 1)) in
        (match key with
        | "seed" -> (
            match int_of_string_opt v with
            | Some n -> Ok { acc with seed = n }
            | None -> Error (Printf.sprintf "faults: seed must be an integer, got %S" v))
        | "sram" ->
            let* f = prob key v in
            Ok { acc with sram_flip = f }
        | "noc" ->
            let* f = prob key v in
            Ok { acc with noc_degrade = f }
        | "jitter" ->
            let* f = range key v ~lo:1.0 ~hi:max_jitter in
            Ok { acc with noc_jitter = f }
        | "dram" ->
            let* f = prob key v in
            Ok { acc with dram_stall = f }
        | "stall" ->
            let* f = range key v ~lo:0.0 ~hi:max_stall_cycles in
            Ok { acc with dram_stall_cycles = f }
        | "watchdog" ->
            let* f = prob key v in
            Ok { acc with watchdog = f }
        | "retries" -> (
            match int_of_string_opt v with
            | Some n when n >= 0 && n <= retries_cap -> Ok { acc with max_retries = n }
            | _ ->
                Error
                  (Printf.sprintf "faults: retries must be an integer in [0, %d], got %S"
                     retries_cap v))
        | _ -> Error (Printf.sprintf "faults: unknown key %S" key))
  in
  List.fold_left step (Ok none) fields

type injector = {
  spec : spec;
  streams : Rng.t array;  (* one per site, indexed by site_index *)
  counts : int array;  (* injections per site *)
  mutable n_draws : int;
}

(* Per-site streams are seeded independently so the number of draws at
   one site never shifts another site's sequence; the scope string
   decouples streams from pool scheduling (same workload+paradigm =>
   same faults at any --jobs count). *)
let create spec ~scope =
  let stream site =
    let h = Hashtbl.hash (scope, site_name site) in
    Rng.create (spec.seed lxor (h * 2654435761))
  in
  {
    spec;
    streams = Array.of_list (List.map stream all_sites);
    counts = Array.make (List.length all_sites) 0;
    n_draws = 0;
  }

let spec_of inj = inj.spec
let max_retries inj = inj.spec.max_retries

let draw inj site p =
  inj.n_draws <- inj.n_draws + 1;
  let hit = p > 0.0 && Rng.float inj.streams.(site_index site) 1.0 < p in
  if hit then begin
    let i = site_index site in
    inj.counts.(i) <- inj.counts.(i) + 1
  end;
  hit

let sram_flip inj ~exposure =
  let p =
    if inj.spec.sram_flip <= 0.0 || exposure <= 0 then 0.0
    else 1.0 -. ((1.0 -. inj.spec.sram_flip) ** float_of_int exposure)
  in
  draw inj Sram p

let noc_factor inj =
  if draw inj Noc inj.spec.noc_degrade then inj.spec.noc_jitter else 1.0

let dram_stall_cycles inj =
  if draw inj Dram inj.spec.dram_stall then inj.spec.dram_stall_cycles else 0.0

let watchdog_timeout inj = draw inj Watchdog inj.spec.watchdog
let injected inj site = inj.counts.(site_index site)
let total_injected inj = Array.fold_left ( + ) 0 inj.counts
let draws inj = inj.n_draws
