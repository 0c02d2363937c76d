(* The request schema (Infs_workloads.Spec) that batch, serve, the
   client's --check and the serving tests share:
   - a bare spec decodes to the documented defaults,
   - every field's malformed value is refused with a message naming it,
   - paradigm aliases and canonical names parse to the same paradigm,
   - the handler's payload is byte-identical to Report.to_json of a
     direct Engine.run. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module Spec = Infs_workloads.Spec

let decode s =
  match Json.parse s with
  | Ok j -> Spec.of_json j
  | Error e -> Alcotest.failf "test input does not parse: %s" e

let test_defaults () =
  match decode {|{"workload": "vec_add"}|} with
  | Error e -> Alcotest.fail e
  | Ok sp ->
    Alcotest.(check bool) "equals Spec.default" true (sp = Spec.default "vec_add");
    Alcotest.(check string) "paradigm" "inf-s" sp.Spec.paradigm;
    Alcotest.(check (list bool))
      "functional, optimize, warm, pre_transposed, charge_jit" [ false; true; false; false; true ]
      [ sp.functional; sp.optimize; sp.warm; sp.pre_transposed; sp.charge_jit ];
    Alcotest.(check bool) "no tile, heuristic Eq. 2, no deadline, no faults" true
      (sp.tile = None && sp.policy = Decision.Heuristic && sp.timeout_s = None && sp.faults = None)

let test_field_values () =
  match
    decode
      {|{"workload": "mm/in", "paradigm": "base", "functional": true, "tile": [4, 64],
         "eq2": {"*": "imc", "k1": "core"}, "timeout_s": 2.5, "faults": "seed=3,sram=0.001"}|}
  with
  | Error e -> Alcotest.fail e
  | Ok sp ->
    Alcotest.(check bool) "tile" true (sp.Spec.tile = Some [| 4; 64 |]);
    Alcotest.(check bool) "per-kernel eq2 table" true
      (sp.policy
      = Decision.Tuned { default = Decision.Force_imc; per_kernel = [ ("k1", Decision.Force_core) ] });
    Alcotest.(check (option (float 0.0))) "timeout_s" (Some 2.5) sp.timeout_s;
    Alcotest.(check bool) "faults" true (sp.faults <> None);
    Alcotest.(check bool) "eq2 as one string" true
      (Result.map (fun s -> s.Spec.policy) (decode {|{"workload": "w", "eq2": "core"}|})
      = Ok (Decision.Tuned { default = Decision.Force_core; per_kernel = [] }))

let test_field_errors () =
  let err what spec want =
    match decode spec with
    | Ok _ -> Alcotest.failf "%s: accepted %s" what spec
    | Error e -> Alcotest.(check string) what want e
  in
  let starts what spec prefix =
    match decode spec with
    | Ok _ -> Alcotest.failf "%s: accepted %s" what spec
    | Error e ->
      Alcotest.(check string) what prefix (String.sub e 0 (min (String.length e) (String.length prefix)))
  in
  err "missing workload" {|{"paradigm": "base"}|} {|spec needs a "workload" string field|};
  err "non-string workload" {|{"workload": 3}|} {|spec needs a "workload" string field|};
  err "numeric paradigm" {|{"workload": "vec_add", "paradigm": 5}|} "field paradigm must be a string";
  err "list paradigm" {|{"workload": "vec_add", "paradigm": ["base"]}|}
    "field paradigm must be a string";
  List.iter
    (fun f ->
      err (f ^ " not a bool")
        (Printf.sprintf {|{"workload": "w", %S: "yes"}|} f)
        (Printf.sprintf "field %s must be a boolean" f))
    [ "functional"; "optimize"; "warm"; "pre_transposed"; "charge_jit" ];
  err "tile of strings" {|{"workload": "w", "tile": ["4"]}|} "field tile must be an array of integers";
  err "tile not an array" {|{"workload": "w", "tile": 4}|} "field tile must be an array of integers";
  err "tile of fractions" {|{"workload": "w", "tile": [1.5]}|} "field tile must be an array of integers";
  (* [-16,-16] has the 256-bitline volume, but a component below 1 *)
  err "negative tile" {|{"workload": "w", "tile": [-16, -16]}|}
    "field tile: tile component -16 < 1";
  err "zero tile component" {|{"workload": "w", "tile": [0, 16]}|}
    "field tile: tile component 0 < 1";
  err "tile volume short of the bitlines" {|{"workload": "w", "tile": [3, 5]}|}
    "field tile: tile volume 15 != 256 bitlines";
  err "tile volume past the bitlines" {|{"workload": "w", "tile": [1048576, 1048576]}|}
    "field tile: tile volume > 256 bitlines";
  err "zero timeout_s" {|{"workload": "w", "timeout_s": 0}|}
    "field timeout_s must be a finite positive number";
  err "negative timeout_s" {|{"workload": "w", "timeout_s": -3}|}
    "field timeout_s must be a finite positive number";
  err "string timeout_s" {|{"workload": "w", "timeout_s": "5"}|}
    "field timeout_s must be a finite positive number";
  (* 1e999 overflows to +inf when decoded *)
  err "infinite timeout_s" {|{"workload": "w", "timeout_s": 1e999}|}
    "field timeout_s must be a finite positive number";
  err "negative infinite timeout_s" {|{"workload": "w", "timeout_s": -1e999}|}
    "field timeout_s must be a finite positive number";
  starts "bad eq2 string" {|{"workload": "w", "eq2": "fast"}|} "field eq2: unknown eq2 override fast";
  starts "bad eq2 object value" {|{"workload": "w", "eq2": {"k": "fast"}}|}
    "field eq2: unknown eq2 override fast";
  err "non-string eq2 override" {|{"workload": "w", "eq2": {"k": 1}}|}
    "field eq2: overrides must be strings";
  err "eq2 of another type" {|{"workload": "w", "eq2": 1}|} "field eq2 must be a string or an object";
  err "non-string faults" {|{"workload": "w", "faults": 1}|} "field faults must be a spec string";
  starts "unparsable faults" {|{"workload": "w", "faults": "sram=2"}|} "field faults: "

let test_paradigm_names () =
  let same alias canonical =
    Alcotest.(check bool)
      (Printf.sprintf "%s = %s" alias canonical)
      true
      (match (E.paradigm_of_string alias, E.paradigm_of_string canonical) with
      | Ok a, Ok c -> a = c
      | _ -> false)
  in
  List.iter
    (fun (alias, canonical) -> same alias canonical)
    [
      ("near", "Near-L3");
      ("base-1", "Base-Thread-1");
      ("infs", "Inf-S");
      ("inl3", "In-L3");
      ("nojit", "Inf-S-noJIT");
      ("base", "Base");
    ];
  List.iter
    (fun p -> same (E.paradigm_to_string p) (E.paradigm_to_string p))
    E.all_paradigms;
  Alcotest.(check bool) "unknown paradigm" true
    (E.paradigm_of_string "warp" = Error "unknown paradigm warp")

(* the served payload is exactly what a direct run reports *)
let test_handler_matches_direct_run () =
  List.iter
    (fun (line, wname, paradigm, functional) ->
      let served =
        match Json.parse line with
        | Error e -> Alcotest.fail e
        | Ok j -> (
          match Spec.handler `Test ~faults:Fault.none j with
          | Ok payload -> Json.to_string payload
          | Error e -> Alcotest.failf "handler failed on %s: %s" line e)
      in
      let direct =
        match Infs_workloads.Catalog.find `Test wname with
        | Error e -> Alcotest.fail e
        | Ok w -> (
          match E.run ~options:{ E.default_options with functional } paradigm w with
          | Ok r -> Json.to_string (R.to_json r)
          | Error e -> Alcotest.fail e)
      in
      Alcotest.(check string) line direct served)
    [
      ({|{"workload": "vec_add", "paradigm": "near"}|}, "vec_add", E.Near_l3, false);
      ( {|{"workload": "stencil1d", "paradigm": "Inf-S", "functional": true}|},
        "stencil1d",
        E.Inf_s,
        true );
    ]

let suite =
  [
    ("bare spec decodes to the defaults", `Quick, test_defaults);
    ("field values decode", `Quick, test_field_values);
    ("malformed fields name themselves", `Quick, test_field_errors);
    ("paradigm aliases and canonical names agree", `Quick, test_paradigm_names);
    ("handler payload = direct Engine.run report", `Quick, test_handler_matches_direct_run);
  ]
