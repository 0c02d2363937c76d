(* Host-time span profiler.

   Mirrors the Trace/Metrics observability pattern: [null] is a permanently
   disabled registry, every hot call site guards on [enabled] (one bool
   test), and a disabled registry performs no clock read, allocation or
   hashing — the bench asserts the disabled-guard overhead stays under 2%
   of a smoke run, the same bar as metrics.

   Spans nest: [enter]/[leave] maintain an explicit stack, and a span is
   keyed by its full path (stack names joined with ';'). Per path the
   registry accumulates a call count plus total (inclusive) and self
   (exclusive of children) host nanoseconds. Counts are deterministic —
   they mirror simulator events, so they reconcile with trace/metrics
   counters and are invariant across --jobs; times are wall-clock and vary
   run to run, which is why report renderers can normalize them out.

   A registry belongs to one domain (batch jobs each create their own and
   the caller merges them); [record_path] is the only entry point intended
   for use under an external lock (serve's systhreads, pool shutdown). *)

type row = {
  mutable count : int;
  mutable total_ns : float;
  mutable self_ns : float;
}

type frame = {
  f_path : string; (* full path including this span's name *)
  f_start_ns : float;
  mutable f_child_ns : float;
}

type t = {
  enabled : bool;
  rows : (string, row) Hashtbl.t;
  mutable stack : frame list;
  mutable calls : int;
}

let null =
  { enabled = false; rows = Hashtbl.create 1; stack = []; calls = 0 }

let create () =
  { enabled = true; rows = Hashtbl.create 64; stack = []; calls = 0 }

let enabled t = t.enabled
let calls t = t.calls

(* clamped monotonic source: a wall-clock step backwards must not produce
   a negative span (the per-span [Float.max 0.0] guards then never fire
   in practice, they remain as defense in depth) *)
let now_ns () = Clock.now_ns ()

let row_of t path =
  match Hashtbl.find_opt t.rows path with
  | Some r -> r
  | None ->
    let r = { count = 0; total_ns = 0.0; self_ns = 0.0 } in
    Hashtbl.add t.rows path r;
    r

let path_under t name =
  match t.stack with
  | [] -> name
  | f :: _ -> f.f_path ^ ";" ^ name

let enter t name =
  if t.enabled then begin
    t.calls <- t.calls + 1;
    t.stack <-
      { f_path = path_under t name; f_start_ns = now_ns (); f_child_ns = 0.0 }
      :: t.stack
  end

let leave t =
  if t.enabled then begin
    t.calls <- t.calls + 1;
    match t.stack with
    | [] -> () (* unbalanced leave: drop it rather than corrupt the table *)
    | f :: rest ->
      t.stack <- rest;
      let elapsed = Float.max 0.0 (now_ns () -. f.f_start_ns) in
      let self = Float.max 0.0 (elapsed -. f.f_child_ns) in
      (match rest with
      | parent :: _ -> parent.f_child_ns <- parent.f_child_ns +. elapsed
      | [] -> ());
      let r = row_of t f.f_path in
      r.count <- r.count + 1;
      r.total_ns <- r.total_ns +. elapsed;
      r.self_ns <- r.self_ns +. self
  end

(* Exception-safe nesting: an exception unwinding through [f] (e.g. the
   engine turning a [Failure] into an [Error]) must still pop the frame,
   or every later span of the run would be misattributed under it. *)
let span t name f =
  if not t.enabled then f ()
  else begin
    enter t name;
    Fun.protect ~finally:(fun () -> leave t) f
  end

let record t name ~ns =
  if t.enabled then begin
    t.calls <- t.calls + 1;
    let ns = Float.max 0.0 ns in
    (match t.stack with
    | parent :: _ -> parent.f_child_ns <- parent.f_child_ns +. ns
    | [] -> ());
    let r = row_of t (path_under t name) in
    r.count <- r.count + 1;
    r.total_ns <- r.total_ns +. ns;
    r.self_ns <- r.self_ns +. ns
  end

let record_path t path ?(count = 1) ~ns () =
  if t.enabled then begin
    t.calls <- t.calls + 1;
    let r = row_of t path in
    r.count <- r.count + count;
    r.total_ns <- r.total_ns +. Float.max 0.0 ns;
    r.self_ns <- r.self_ns +. Float.max 0.0 ns
  end

let merge_into ~dst src =
  if dst.enabled then begin
    Hashtbl.iter
      (fun path (r : row) ->
        let d = row_of dst path in
        d.count <- d.count + r.count;
        d.total_ns <- d.total_ns +. r.total_ns;
        d.self_ns <- d.self_ns +. r.self_ns)
      src.rows;
    dst.calls <- dst.calls + src.calls
  end

(* ---- reports ---- *)

type entry = { path : string; count : int; total_ns : float; self_ns : float }

let rows t =
  Hashtbl.fold
    (fun path (r : row) acc ->
      { path; count = r.count; total_ns = r.total_ns; self_ns = r.self_ns }
      :: acc)
    t.rows []
  |> List.sort (fun a b -> String.compare a.path b.path)

let leaf_of path =
  match String.rindex_opt path ';' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let count_leaf t name =
  Hashtbl.fold
    (fun path (r : row) acc ->
      if leaf_of path = name then acc + r.count else acc)
    t.rows 0

(* Text table sorted by path. [normalize] replaces the wall-time columns
   with "-" so the output is byte-deterministic (counts are; times are
   not) — the golden-profile test pins exactly this rendering. *)
let report ?(normalize = false) t =
  let rs = rows t in
  let b = Buffer.create 1024 in
  Printf.bprintf b "profile: %d span paths, %d instrumentation calls\n"
    (List.length rs) t.calls;
  let pw =
    List.fold_left (fun acc r -> max acc (String.length r.path)) 4 rs
  in
  Printf.bprintf b "%-*s  %8s  %12s  %12s\n" pw "path" "calls" "total(ms)"
    "self(ms)";
  List.iter
    (fun r ->
      if normalize then
        Printf.bprintf b "%-*s  %8d  %12s  %12s\n" pw r.path r.count "-" "-"
      else
        Printf.bprintf b "%-*s  %8d  %12.3f  %12.3f\n" pw r.path r.count
          (r.total_ns /. 1e6) (r.self_ns /. 1e6))
    rs;
  Buffer.contents b

let to_json ?(normalize = false) t =
  Json.Obj
    [
      ("schema", Json.Str "infs-prof-1");
      ( "spans",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("path", Json.Str r.path);
                   ("calls", Json.Num (float_of_int r.count));
                   ("total_ns", Json.Num (if normalize then 0.0 else r.total_ns));
                   ("self_ns", Json.Num (if normalize then 0.0 else r.self_ns));
                 ])
             (rows t)) );
    ]

(* flamegraph.pl folded-stack format: one "path;to;span <value>" line per
   path, value = integral self nanoseconds. *)
let to_folded t =
  let b = Buffer.create 512 in
  List.iter
    (fun r ->
      Printf.bprintf b "%s %.0f\n" r.path (Float.max 0.0 r.self_ns))
    (rows t);
  Buffer.contents b

let write_file t path =
  if t.enabled then begin
    let body =
      if Side_file.has_ext path ".json" then
        Json.to_string (to_json t) ^ "\n"
      else if Side_file.has_ext path ".folded" then to_folded t
      else report t
    in
    let oc = open_out path in
    output_string oc body;
    close_out oc
  end
