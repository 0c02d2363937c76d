(* Suites run in sorted-name order, so the execution order (and therefore
   any cross-suite interaction with shared process state, e.g. the
   compile cache) is deterministic and independent of how this list is
   edited. The qcheck seed is resolved once in Qcheck_seed (env
   QCHECK_SEED or a printed random draw) and every property test starts
   from a fresh state of that seed, so a failure replays exactly with
   QCHECK_SEED=<printed seed> dune runtest. *)

let () =
  ignore Qcheck_seed.seed;
  Alcotest.run "infinity-stream"
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       [
         ("util", Test_util.suite);
         ("tensor", Test_tensor.suite);
         ("isa", Test_isa.suite);
         ("lang", Test_lang.suite);
         ("tdfg", Test_tdfg.suite);
         ("egraph", Test_egraph.suite);
         ("compiler", Test_compiler.suite);
         ("runtime", Test_runtime.suite);
         ("sim", Test_sim.suite);
         ("engine", Test_engine.suite);
         ("workloads", Test_workloads.suite);
         ("transformer", Test_transformer.suite);
         ("coverage", Test_catalog_coverage.suite);
         ("edge", Test_edge.suite);
         ("sdfg+rules", Test_sdfg.suite);
         ("fault", Test_fault.suite);
         ("fidelity", Test_fidelity.suite);
         ("identity", Test_identity.suite);
         ("trace", Test_trace.suite);
         ("pool", Test_pool.suite);
         ("metrics", Test_metrics.suite);
         ("serve", Test_serve.suite);
         ("shard", Test_shard.suite);
         ("spec", Test_spec.suite);
         ("prof", Test_prof.suite);
         ("tune", Test_tune.suite);
       ])
