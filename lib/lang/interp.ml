let fp32 = Dense.fp32

(* [data] is allocated on the first write; until then it is empty and
   every read of the array returns 0.0. A performance-only run (functional
   = false) writes no array, yet host code such as a pivot step still
   reads cells into scalars: zero-filling a paper-scale matrix for that
   read dominated the whole run. Arrays observable through any accessor
   start zeroed exactly as before. *)
type array_store = { dims : int list; size : int; mutable data : float array }

type env = {
  prog : Ast.program;
  params : (string, int) Hashtbl.t;
  arrays : (string, array_store) Hashtbl.t;
  scalars : (string, float) Hashtbl.t;
  ivars : (string, int) Hashtbl.t;
  mutable ops : int;
  kernel_iters : (string, int) Hashtbl.t;
}

(* Exception-based lookups avoid the [Some v] allocation of [find_opt];
   this is the innermost call of every symbolic-bound resolution. *)
let lookup_int env name =
  match Hashtbl.find env.ivars name with
  | v -> v
  | exception Not_found -> (
    match Hashtbl.find env.params name with
    | v -> v
    | exception Not_found ->
      failwith (Printf.sprintf "Interp: unbound integer %s" name))

let eval_saff env a = Symaff.eval a (lookup_int env)

let create prog ~params =
  match Ast.validate prog with
  | Error e -> Error (Printf.sprintf "program %s: %s" prog.Ast.name e)
  | Ok () ->
    let missing =
      List.filter (fun p -> not (List.mem_assoc p params)) prog.Ast.params
    in
    if missing <> [] then
      Error ("missing parameters: " ^ String.concat ", " missing)
    else begin
      let env =
        {
          prog;
          params = Hashtbl.create 8;
          arrays = Hashtbl.create 8;
          scalars = Hashtbl.create 8;
          ivars = Hashtbl.create 8;
          ops = 0;
          kernel_iters = Hashtbl.create 8;
        }
      in
      List.iter (fun (k, v) -> Hashtbl.replace env.params k v) params;
      let bad = ref None in
      List.iter
        (fun (a : Ast.array_decl) ->
          let dims = List.map (eval_saff env) a.dims in
          if List.exists (fun d -> d < 0) dims then
            bad := Some (Printf.sprintf "array %s has a negative extent" a.aname)
          else
            let size = List.fold_left ( * ) 1 dims in
            Hashtbl.replace env.arrays a.aname { dims; size; data = [||] })
        prog.Ast.arrays;
      match !bad with Some e -> Error e | None -> Ok env
    end

(* The array's storage, allocated (zeroed) for a write. *)
let data_of (a : array_store) =
  if Array.length a.data = 0 && a.size > 0 then a.data <- Array.make a.size 0.0;
  a.data

let find_array env name =
  match Hashtbl.find_opt env.arrays name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Interp: unknown array %s" name)

let set_array env name data =
  let a = find_array env name in
  if Array.length data <> a.size then
    invalid_arg
      (Printf.sprintf "Interp.set_array %s: length %d, expected %d" name
         (Array.length data) a.size);
  Array.blit (Array.map fp32 data) 0 (data_of a) 0 (Array.length data)

let get_array env name =
  let a = find_array env name in
  if Array.length a.data = 0 then Array.make a.size 0.0 else Array.copy a.data

let array_dims env name = (find_array env name).dims

let flat_index ~aname dims idxs =
  let rec go acc dims idxs =
    match (dims, idxs) with
    | [], [] -> acc
    | d :: dims, i :: idxs ->
      if i < 0 || i >= d then
        failwith
          (Printf.sprintf "Interp: %s index %d out of range [0,%d)" aname i d)
      else go ((acc * d) + i) dims idxs
    | _ -> failwith (Printf.sprintf "Interp: %s rank mismatch" aname)
  in
  go 0 dims idxs

(* A read: bounds-checked like a write, but an unwritten array reads 0.0
   without being allocated. *)
let read (a : array_store) ~aname idxs =
  let i = flat_index ~aname a.dims idxs in
  if Array.length a.data = 0 then 0.0 else a.data.(i)

let rec eval_index env = function
  | Ast.Aff a -> eval_saff env a
  | Ast.Indirect { array; indices } ->
    let st = find_array env array in
    int_of_float (read st ~aname:array (List.map (eval_saff env) indices))

and eval_expr env = function
  | Ast.Load { array; indices } ->
    let st = find_array env array in
    read st ~aname:array (List.map (eval_index env) indices)
  | Ast.Float_const f -> fp32 f
  | Ast.Scalar s -> (
    match Hashtbl.find_opt env.scalars s with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Interp: unbound scalar %s" s))
  | Ast.Binop (op, a, b) ->
    let va = eval_expr env a in
    let vb = eval_expr env b in
    env.ops <- env.ops + 1;
    fp32 (Op.eval op [ va; vb ])
  | Ast.Unop (op, a) ->
    let va = eval_expr env a in
    env.ops <- env.ops + 1;
    fp32 (Op.eval op [ va ])

let exec_kernel_stmt env (st : Ast.kernel_stmt) =
  let v = eval_expr env st.rhs in
  let arr = find_array env st.target in
  let idxs = List.map (eval_index env) st.target_indices in
  let flat = flat_index ~aname:st.target arr.dims idxs in
  let data = data_of arr in
  match st.accum with
  | None -> data.(flat) <- v
  | Some op ->
    env.ops <- env.ops + 1;
    data.(flat) <- fp32 (Op.eval op [ data.(flat); v ])

let with_ivar env name v f =
  let old = Hashtbl.find_opt env.ivars name in
  Hashtbl.replace env.ivars name v;
  f ();
  match old with
  | Some o -> Hashtbl.replace env.ivars name o
  | None -> Hashtbl.remove env.ivars name

let exec_kernel env (k : Ast.kernel) =
  let iters = ref 0 in
  let rec nest = function
    | [] ->
      incr iters;
      List.iter (exec_kernel_stmt env) k.body
    | (l : Ast.loop) :: rest ->
      let lo = eval_saff env l.lo and hi = eval_saff env l.hi in
      for v = lo to hi - 1 do
        with_ivar env l.ivar v (fun () -> nest rest)
      done
  in
  nest k.loops;
  let prev = Option.value ~default:0 (Hashtbl.find_opt env.kernel_iters k.kname) in
  Hashtbl.replace env.kernel_iters k.kname (prev + !iters)

let rec exec_stmt ~on_kernel env = function
  | Ast.Host_loop (l, body) ->
    let lo = eval_saff env l.lo and hi = eval_saff env l.hi in
    for v = lo to hi - 1 do
      with_ivar env l.ivar v (fun () -> List.iter (exec_stmt ~on_kernel env) body)
    done
  | Ast.Let_scalar (name, e) -> Hashtbl.replace env.scalars name (eval_expr env e)
  | Ast.Kernel k -> on_kernel env k

let run ?on_kernel env =
  let on_kernel = Option.value ~default:exec_kernel on_kernel in
  env.ops <- 0;
  Hashtbl.reset env.kernel_iters;
  List.iter (exec_stmt ~on_kernel env) env.prog.Ast.body

let lookup_int = lookup_int

let get_scalar env s =
  match Hashtbl.find_opt env.scalars s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Interp: unbound scalar %s" s)

let read_cell env name idxs = read (find_array env name) ~aname:name idxs

let write_cell env name idxs v =
  let a = find_array env name in
  (data_of a).(flat_index ~aname:name a.dims idxs) <- fp32 v

let op_count env = env.ops

let kernel_iterations env =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.kernel_iters []
  |> List.sort compare

let run_program prog ~params ~inputs =
  match create prog ~params with
  | Error e -> Error e
  | Ok env ->
    List.iter (fun (name, data) -> set_array env name data) inputs;
    (try
       run env;
       Ok
         (List.map
            (fun (a : Ast.array_decl) -> (a.aname, get_array env a.aname))
            prog.Ast.arrays)
     with Failure e -> Error e)
