(* Aggregated test entry point: one alcotest run over every suite. *)

let () =
  Alcotest.run "entangle"
    (Test_symbolic.suite @ Test_ir.suite @ Test_ndarray.suite @ Test_interp.suite
   @ Test_egraph.suite @ Test_lemmas.suite @ Test_core.suite
   @ Test_models.suite @ Test_autodiff.suite @ Test_serial.suite @ Test_fuzz.suite @ Test_report.suite
   @ Test_analysis.suite @ Test_verify.suite @ Test_trace.suite
   @ Test_resilience.suite @ Test_cache.suite
   @ Test_serve.suite @ Test_certexport.suite @ Test_perf_gate.suite)
