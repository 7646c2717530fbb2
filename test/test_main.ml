let () =
  Alcotest.run "nakika"
    [
      ("util", Test_util.suite);
      ("crypto", Test_crypto.suite);
      ("regex", Test_regex.suite);
      ("http", Test_http.suite);
      ("script", Test_script.suite);
      ("compile", Test_compile.suite);
      ("analysis", Test_analysis.suite);
      ("policy", Test_policy.suite);
      ("sim", Test_sim.suite);
      ("cache", Test_cache.suite);
      ("overlay", Test_overlay.suite);
    ("diffusion", Test_diffusion.suite);
      ("resource", Test_resource.suite);
      ("replication", Test_replication.suite);
      ("integrity", Test_integrity.suite);
      ("vocab", Test_vocab.suite);
      ("json", Test_json.suite);
      ("pretty", Test_pretty.suite);
      ("movie", Test_movie.suite);
      ("pipeline", Test_pipeline.suite);
      ("node", Test_node.suite);
      ("provision", Test_provision.suite);
      ("faults", Test_faults.suite);
      ("telemetry", Test_telemetry.suite);
      ("workload", Test_workload.suite);
      ("extensions", Test_extensions.suite);
      ("parsers", Test_parsers.suite);
      ("spans", Test_spans.suite);
    ]
