(* Aggregated alcotest runner for all vmor suites. *)

let () = Alcotest.run "vmor" (Test_la.suite @ Test_ode.suite @ Test_circuit.suite @ Test_volterra.suite @ Test_mor.suite @ Test_waves.suite @ Test_experiments.suite @ Test_extensions.suite @ Test_validation.suite @ Test_analysis.suite @ Test_properties.suite @ Test_dae_bias.suite @ Test_coverage.suite @ Test_contracts.suite @ Test_robust.suite @ Test_obs.suite @ Test_health.suite @ Test_prof.suite @ Test_domain_safety.suite @ Test_budget.suite @ Test_par.suite @ Test_cost.suite)
