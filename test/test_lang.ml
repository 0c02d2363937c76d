(* Symbolic affine expressions, symbolic rectangles, AST validation and the
   golden interpreter. *)

let saff = Alcotest.testable (fun ppf a -> Symaff.pp ppf a) Symaff.equal

let test_symaff_basics () =
  let open Symaff in
  let e = add (term 2 "n") (const 3) in
  Alcotest.(check int) "eval" 13 (eval e (fun _ -> 5));
  Alcotest.check saff "x - x = 0" zero (sub (var "x") (var "x"));
  Alcotest.check saff "subst" (const 7) (subst (add (var "x") (const 2)) "x" (const 5));
  Alcotest.(check (list string)) "vars sorted" [ "a"; "b" ]
    (vars (add (var "b") (var "a")));
  Alcotest.(check int) "coeff" 2 (coeff e "n");
  Alcotest.(check (option int)) "is_const" None (is_const e);
  Alcotest.(check string) "to_string" "2n+3" (to_string e)

let symaff_gen =
  QCheck.Gen.(
    let term_g = pair (oneofl [ "x"; "y"; "z" ]) (int_range (-5) 5) in
    map
      (fun (c, terms) ->
        List.fold_left
          (fun acc (v, k) -> Symaff.add acc (Symaff.term k v))
          (Symaff.const c) terms)
      (pair (int_range (-10) 10) (list_size (int_range 0 4) term_g)))

let symaff_arb = QCheck.make ~print:Symaff.to_string symaff_gen

let env_of_seed seed v =
  (* deterministic positive env *)
  1 + ((Hashtbl.hash (seed, v) land 0xff) + 1)

let prop_symaff_ring =
  QCheck.Test.make ~name:"symaff add/sub agree with evaluation" ~count:300
    QCheck.(pair (pair symaff_arb symaff_arb) small_int)
    (fun ((a, b), seed) ->
      let env = env_of_seed seed in
      Symaff.eval (Symaff.add a b) env = Symaff.eval a env + Symaff.eval b env
      && Symaff.eval (Symaff.sub a b) env = Symaff.eval a env - Symaff.eval b env
      && Symaff.eval (Symaff.scale 3 a) env = 3 * Symaff.eval a env)

let prop_symaff_canonical =
  QCheck.Test.make ~name:"symaff equality is canonical" ~count:300
    QCheck.(pair symaff_arb symaff_arb)
    (fun (a, b) ->
      (* a + b - b = a structurally, not just semantically *)
      Symaff.equal a (Symaff.sub (Symaff.add a b) b)
      && Symaff.add a b = Symaff.add b a)

let test_symaff_leq () =
  let open Symaff in
  Alcotest.(check bool) "n <= n+1" true (leq (var "n") (add_const (var "n") 1));
  Alcotest.(check bool) "0 <= n under min_var" true (leq ~min_var:1 zero (var "n"));
  Alcotest.(check bool) "n <= n-1 false" false (leq (var "n") (add_const (var "n") (-1)));
  Alcotest.(check bool) "k <= n unprovable" false (leq (var "k") (var "n"));
  Alcotest.(check bool) "2 <= n with min_var 4" true (leq ~min_var:4 (const 2) (var "n"))

let test_symrect () =
  let open Symaff in
  let r = Symrect.make [ (const 1, var "n"); (zero, var "m") ] in
  Alcotest.(check int) "dims" 2 (Symrect.dims r);
  Alcotest.(check string) "to_string" "[1,n)x[0,m)" (Symrect.to_string r);
  let h = Symrect.resolve r (function "n" -> 5 | _ -> 3) in
  Alcotest.(check string) "resolve" "[1,5)x[0,3)" (Hyperrect.to_string h);
  let shifted = Symrect.shift r ~dim:0 ~dist:2 in
  Alcotest.(check string) "shift" "[3,n+2)x[0,m)" (Symrect.to_string shifted);
  let collapsed = Symrect.collapse r ~dim:1 in
  Alcotest.(check string) "collapse" "[1,n)x[0,1)" (Symrect.to_string collapsed)

let test_symrect_intersect () =
  let open Symaff in
  let a = Symrect.make [ (const 0, var "n") ] in
  let b = Symrect.make [ (const 2, var "n") ] in
  (match Symrect.intersect ~min_var:4 a b with
  | Some r -> Alcotest.(check string) "max of lows" "[2,n)" (Symrect.to_string r)
  | None -> Alcotest.fail "expected intersection");
  (* identical host-var-dependent ranges intersect without a proof *)
  let c = Symrect.make [ (add_const (var "k") 1, var "n") ] in
  (match Symrect.intersect ~min_var:4 c c with
  | Some r -> Alcotest.(check string) "identical" "[k+1,n)" (Symrect.to_string r)
  | None -> Alcotest.fail "identical ranges must intersect")

let test_ast_validate_catches () =
  let open Ast in
  let n = Symaff.var "N" in
  let bad_arrays =
    program ~name:"p" ~params:[ "N" ]
      ~arrays:[ array "A" Dtype.Fp32 [ n ] ]
      [ Kernel (kernel "k" [ loop "i" (c 0) n ] [ store "B" [ i "i" ] (fconst 1.0) ]) ]
  in
  Alcotest.(check bool) "undeclared array" true (Result.is_error (validate bad_arrays));
  let bad_rank =
    program ~name:"p" ~params:[ "N" ]
      ~arrays:[ array "A" Dtype.Fp32 [ n; n ] ]
      [ Kernel (kernel "k" [ loop "i" (c 0) n ] [ store "A" [ i "i" ] (fconst 1.0) ]) ]
  in
  Alcotest.(check bool) "rank mismatch" true (Result.is_error (validate bad_rank));
  let bad_scalar =
    program ~name:"p" ~params:[ "N" ]
      ~arrays:[ array "A" Dtype.Fp32 [ n ] ]
      [ Kernel (kernel "k" [ loop "i" (c 0) n ] [ store "A" [ i "i" ] (scalar "s") ]) ]
  in
  Alcotest.(check bool) "unbound scalar" true (Result.is_error (validate bad_scalar));
  let bad_var =
    program ~name:"p" ~params:[ "N" ]
      ~arrays:[ array "A" Dtype.Fp32 [ n ] ]
      [ Kernel (kernel "k" [ loop "i" (c 0) n ] [ store "A" [ i "j" ] (fconst 1.0) ]) ]
  in
  Alcotest.(check bool) "unbound ivar" true (Result.is_error (validate bad_var));
  (* the runtime keys regions, plans and JIT memo entries on the kernel
     name: a second kernel of the same name would run the first's plan *)
  let dup_name =
    program ~name:"p" ~params:[ "N" ]
      ~arrays:[ array "A" Dtype.Fp32 [ n ]; array "B" Dtype.Fp32 [ n ] ]
      [
        Kernel (kernel "k" [ loop "i" (c 0) n ] [ store "A" [ i "i" ] (fconst 1.0) ]);
        Host_loop
          ( loop "t" (c 0) n,
            [
              Kernel (kernel "k" [ loop "i" (c 0) n ] [ store "B" [ i "i" ] (fconst 2.0) ]);
            ] );
      ]
  in
  Alcotest.(check (result unit string)) "duplicate kernel name"
    (Error "duplicate kernel name k") (validate dup_name);
  let sweep = Kernel (kernel "k" [ loop "i" (c 0) n ] [ store "A" [ i "i" ] (fconst 1.0) ]) in
  let repeated =
    program ~name:"p" ~params:[ "N" ] ~arrays:[ array "A" Dtype.Fp32 [ n ] ] [ sweep; sweep ]
  in
  Alcotest.(check (result unit string)) "a kernel repeated verbatim" (Ok ()) (validate repeated)

let test_ast_queries () =
  let open Ast in
  let n = Symaff.var "N" in
  let k =
    kernel "k"
      [ loop "i" (c 0) n ]
      [ store "B" [ i "i" ] (load "A" [ i "i" ] * load "A" [ i "i" +% 1 ] + fconst 1.0) ]
  in
  Alcotest.(check int) "flops/iter" 2 (kernel_flops_per_iter k);
  Alcotest.(check int) "loads" 2 (List.length (expr_loads (List.hd k.body).rhs));
  Alcotest.(check bool) "no indirect" false (kernel_has_indirect k)

let feq = Alcotest.float 1e-5

(* golden interpreter against hand computation *)
let test_interp_saxpy () =
  let open Ast in
  let n = Symaff.var "N" in
  let prog =
    program ~name:"saxpy" ~params:[ "N" ]
      ~arrays:[ array "X" Dtype.Fp32 [ n ]; array "Y" Dtype.Fp32 [ n ] ]
      [
        Kernel
          (kernel "saxpy"
             [ loop "i" (c 0) n ]
             [ store "Y" [ i "i" ] ((fconst 2.0 * load "X" [ i "i" ]) + load "Y" [ i "i" ]) ]);
      ]
  in
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 10.0; 20.0; 30.0 |] in
  match Interp.run_program prog ~params:[ ("N", 3) ] ~inputs:[ ("X", x); ("Y", y) ] with
  | Error e -> Alcotest.fail e
  | Ok arrays ->
    let got = List.assoc "Y" arrays in
    Alcotest.check feq "y0" 12.0 got.(0);
    Alcotest.check feq "y2" 36.0 got.(2)

let test_interp_host_loop_and_scalars () =
  let open Ast in
  let n = Symaff.var "N" in
  (* prefix sums via host loop: S[k+1] = S[k] + A[k] *)
  let prog =
    program ~name:"scan" ~params:[ "N" ]
      ~arrays:[ array "A" Dtype.Fp32 [ n ]; array "S" Dtype.Fp32 [ n +% 1 ] ]
      [
        Host_loop
          ( loop "k" (c 0) n,
            [
              Let_scalar ("acc", load "S" [ i "k" ] + load "A" [ i "k" ]);
              Kernel
                (kernel "store"
                   [ loop "j" (i "k" +% 1) (i "k" +% 2) ]
                   [ store "S" [ i "j" ] (scalar "acc") ]);
            ] );
      ]
  in
  match
    Interp.run_program prog ~params:[ ("N", 4) ]
      ~inputs:[ ("A", [| 1.0; 2.0; 3.0; 4.0 |]) ]
  with
  | Error e -> Alcotest.fail e
  | Ok arrays ->
    let s = List.assoc "S" arrays in
    Alcotest.check feq "prefix sum" 10.0 s.(4)

let test_interp_indirect () =
  let open Ast in
  let n = Symaff.var "N" in
  let prog =
    program ~name:"gather" ~params:[ "N" ]
      ~arrays:
        [
          array "A" Dtype.Fp32 [ n ];
          array "IX" Dtype.Fp32 [ n ];
          array "G" Dtype.Fp32 [ n ];
        ]
      [
        Kernel
          (kernel "gather"
             [ loop "i" (c 0) n ]
             [
               store "G" [ i "i" ]
                 (load_ix "A" [ Indirect { array = "IX"; indices = [ i "i" ] } ]);
             ]);
      ]
  in
  match
    Interp.run_program prog ~params:[ ("N", 3) ]
      ~inputs:[ ("A", [| 10.0; 20.0; 30.0 |]); ("IX", [| 2.0; 0.0; 1.0 |]) ]
  with
  | Error e -> Alcotest.fail e
  | Ok arrays ->
    Alcotest.check feq "gathered" 30.0 (List.assoc "G" arrays).(0)

let test_interp_out_of_range_indirect () =
  let open Ast in
  let n = Symaff.var "N" in
  let prog =
    program ~name:"bad" ~params:[ "N" ]
      ~arrays:[ array "A" Dtype.Fp32 [ n ]; array "IX" Dtype.Fp32 [ n ] ]
      [
        Kernel
          (kernel "g"
             [ loop "i" (c 0) n ]
             [
               store "A" [ i "i" ]
                 (load_ix "A" [ Indirect { array = "IX"; indices = [ i "i" ] } ]);
             ]);
      ]
  in
  match
    Interp.run_program prog ~params:[ ("N", 2) ] ~inputs:[ ("IX", [| 5.0; 0.0 |]) ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an out-of-range failure"

let test_interp_op_count () =
  let open Ast in
  let n = Symaff.var "N" in
  let prog =
    program ~name:"p" ~params:[ "N" ]
      ~arrays:[ array "A" Dtype.Fp32 [ n ] ]
      [
        Kernel
          (kernel "k"
             [ loop "i" (c 0) n ]
             [ accum Op.Add "A" [ i "i" ] (load "A" [ i "i" ] * fconst 2.0) ]);
      ]
  in
  match Interp.create prog ~params:[ ("N", 8) ] with
  | Error e -> Alcotest.fail e
  | Ok env ->
    Interp.run env;
    Alcotest.(check int) "2 ops x 8 iters" 16 (Interp.op_count env);
    Alcotest.(check (list (pair string int))) "iterations" [ ("k", 8) ]
      (Interp.kernel_iterations env)

(* An array is allocated on its first write; until then every read returns
   0.0, through the same bounds checks as before. *)
let test_interp_unwritten_reads () =
  let open Ast in
  let n = Symaff.var "N" in
  let prog =
    program ~name:"p" ~params:[ "N" ]
      ~arrays:[ array "A" Dtype.Fp32 [ n; n ]; array "B" Dtype.Fp32 [ n ] ]
      [
        Let_scalar ("akk", load "A" [ c 1; c 1 ]);
        Kernel
          (kernel "k"
             [ loop "i" (c 0) n ]
             [ store "B" [ i "i" ] (load "A" [ i "i"; c 0 ] + fconst 1.0) ]);
      ]
  in
  let env () =
    match Interp.create prog ~params:[ ("N", 3) ] with
    | Ok env -> env
    | Error e -> Alcotest.fail e
  in
  let e = env () in
  Alcotest.check feq "unwritten cell reads 0" 0.0 (Interp.read_cell e "A" [ 2; 1 ]);
  Alcotest.(check (array (float 0.0))) "unwritten array reads as zeros"
    (Array.make 9 0.0) (Interp.get_array e "A");
  Interp.run e;
  Alcotest.check feq "host read of an unwritten cell" 0.0 (Interp.get_scalar e "akk");
  Alcotest.(check (array (float 0.0))) "kernel reads of an unwritten array"
    [| 1.0; 1.0; 1.0 |] (Interp.get_array e "B");
  Alcotest.check_raises "out-of-range read of an unwritten array"
    (Failure "Interp: A index 3 out of range [0,3)")
    (fun () -> ignore (Interp.read_cell (env ()) "A" [ 3; 0 ]));
  Alcotest.check_raises "rank mismatch on an unwritten array"
    (Failure "Interp: A rank mismatch")
    (fun () -> ignore (Interp.read_cell (env ()) "A" [ 0 ]));
  let e = env () in
  Interp.write_cell e "A" [ 1; 2 ] 5.0;
  Alcotest.check feq "written cell" 5.0 (Interp.read_cell e "A" [ 1; 2 ]);
  Alcotest.check feq "its neighbours stay zero" 0.0 (Interp.read_cell e "A" [ 2; 1 ])

let suite =
  [
    ("symaff basics", `Quick, test_symaff_basics);
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_symaff_ring;
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_symaff_canonical;
    ("symaff leq", `Quick, test_symaff_leq);
    ("symrect ops", `Quick, test_symrect);
    ("symrect intersect", `Quick, test_symrect_intersect);
    ("ast validate catches errors", `Quick, test_ast_validate_catches);
    ("ast queries", `Quick, test_ast_queries);
    ("interp saxpy", `Quick, test_interp_saxpy);
    ("interp host loop + scalars", `Quick, test_interp_host_loop_and_scalars);
    ("interp indirect gather", `Quick, test_interp_indirect);
    ("interp out-of-range", `Quick, test_interp_out_of_range_indirect);
    ("interp op count", `Quick, test_interp_op_count);
    ("interp unwritten arrays read zero", `Quick, test_interp_unwritten_reads);
  ]
