(* The benchmark harness: regenerates every table and figure in the
   paper's evaluation (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table2  # one experiment

   Experiments: table1 table2 micro-costs capacity resource-controls
   figure7 simm-local specweb extensions integrity ablations faults
   overload provision diffusion micro scale tail

   "micro-guard" is special: it re-measures the fast-path micro rows
   against the committed BENCH_micro.json and exits non-zero on a >25%
   regression (NAKIKA_BENCH_GUARD_SKIP=1 bypasses). It runs outside the
   experiment registry so it never rewrites a BENCH_*.json. *)

let experiments =
  [
    ("table1", Bench_table2.table1);
    ("table2", Bench_table2.table2);
    ("micro-costs", Bench_capacity.micro_costs);
    ("capacity", Bench_capacity.capacity);
    ("resource-controls", Bench_capacity.resource_controls);
    ("figure7", Bench_figure7.figure7);
    ("simm-local", Bench_figure7.simm_local);
    ("specweb", Bench_specweb.specweb);
    ("extensions", Bench_extensions.extensions);
    ("integrity", Bench_integrity.integrity);
    ("ablations", Bench_ablations.ablations);
    ("faults", Bench_faults.faults);
    ("overload", Bench_overload.overload);
    ("provision", Bench_provision.provision);
    ("diffusion", Bench_diffusion.diffusion);
    ("tail", Bench_tail.tail);
    ("micro", Bench_micro.micro);
    ("scale", Bench_scale.scale);
  ]

(* Real (process CPU) time per experiment, reported once at the end. *)
let profile = Core.Telemetry.Profile.create ~clock:Sys.time ()

let run_experiment name run =
  Harness.begin_experiment name;
  Fun.protect
    ~finally:(fun () -> Harness.finish_experiment ())
    (fun () -> Core.Telemetry.Profile.time profile name run)

let print_profile () =
  Printf.printf "\n=== Bench profile (process CPU seconds) ===\n%s"
    (Core.Telemetry.Profile.to_table profile)

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  (match requested with
   | [] ->
     print_endline "Na Kika reproduction: full benchmark suite";
     List.iter (fun (name, run) -> run_experiment name run) experiments
   | names ->
     List.iter
       (fun name ->
         if name = "micro-guard" then Bench_micro.guard ()
         else
           match List.assoc_opt name experiments with
           | Some run -> run_experiment name run
           | None ->
             Printf.eprintf "unknown experiment %S; available: %s micro-guard\n" name
               (String.concat " " (List.map fst experiments));
             exit 1)
       names);
  print_profile ()
