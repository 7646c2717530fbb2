(* Tests for Nk_util: PRNG determinism, event-heap ordering, statistics,
   EWMA, string helpers, cothreads. *)

open Core.Util

let check_float = Alcotest.(check (float 1e-9))

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a max_int) (Prng.int b max_int)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different streams" false (Prng.int a max_int = Prng.int b max_int)

let test_prng_int_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_prng_int_rejects_nonpositive () =
  let rng = Prng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_bytes_are_int_draws () =
  (* Each byte is one [int _ 256] draw, and the state moves on as far:
     the next draws of both generators agree. *)
  List.iter
    (fun n ->
      let a = Prng.create (1000 + n) and b = Prng.create (1000 + n) in
      let expected = String.init n (fun _ -> Char.chr (Prng.int a 256)) in
      Alcotest.(check string) "bytes" expected (Prng.bytes b n);
      Alcotest.(check int) "state after" (Prng.int a max_int) (Prng.int b max_int))
    [ 0; 1; 7; 4096 ]

let test_prng_float_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

(* Inverse-CDF draws over [Prng.float]: their shape checks that the
   uniform stream every shipped sampler reads is uniform on [0, 1). *)
let exponential rng mean =
  let u = Prng.float rng 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let pareto rng ~alpha ~xmin =
  let u = Prng.float rng 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  xmin /. (u ** (1.0 /. alpha))

let test_prng_exponential_positive () =
  let rng = Prng.create 9 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (exponential rng 0.5 >= 0.0)
  done

let test_prng_exponential_mean () =
  let rng = Prng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. exponential rng 2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2.0" true (mean > 1.9 && mean < 2.1)

let test_prng_pareto_min () =
  let rng = Prng.create 13 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "at least xmin" true (pareto rng ~alpha:1.2 ~xmin:100.0 >= 100.0)
  done

let test_prng_shuffle_permutation () =
  let rng = Prng.create 5 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_split_independent () =
  let a = Prng.create 42 in
  (* A child stream seeded from the parent's next draw. *)
  let b = Prng.create (Prng.int a max_int) in
  Alcotest.(check bool) "split streams differ" false (Prng.int a max_int = Prng.int b max_int)

(* The binary heap is the simulator's event queue, specialised to
   thunks inside [Sim]; these drive it through [schedule_at] and [step]
   and record which event ran when. *)
let heap_sim () = Core.Sim.Sim.create ~start_time:0.0 ()

let push sim log prio v =
  Core.Sim.Sim.schedule_at sim prio (fun () -> log := (Core.Sim.Sim.now sim, v) :: !log)

let pop sim log =
  log := [];
  if Core.Sim.Sim.step sim then Some (List.hd !log) else None

let test_heap_orders () =
  let sim = heap_sim () and log = ref [] in
  List.iter (fun (p, v) -> push sim log p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let pops = List.init 3 (fun _ -> snd (Option.get (pop sim log))) in
  Alcotest.(check (list string)) "ascending" [ "a"; "b"; "c" ] pops

let test_heap_stable_on_ties () =
  let sim = heap_sim () and log = ref [] in
  List.iter (fun v -> push sim log 1.0 v) [ "first"; "second"; "third" ];
  let pops = List.init 3 (fun _ -> snd (Option.get (pop sim log))) in
  Alcotest.(check (list string)) "insertion order" [ "first"; "second"; "third" ] pops

let test_heap_empty () =
  let sim = heap_sim () and log = ref [] in
  Alcotest.(check int) "empty" 0 (Core.Sim.Sim.pending sim);
  Alcotest.(check bool) "pop none" true (pop sim log = None);
  Alcotest.(check bool) "step on empty" false (Core.Sim.Sim.step sim)

(* The simulator clamps a time in the past to now, so 0.5 pushed after
   the clock reached 1.0 pops at 1.0 — still first. *)
let test_heap_interleaved () =
  let sim = heap_sim () and log = ref [] in
  push sim log 5.0 5;
  push sim log 1.0 1;
  Alcotest.(check bool) "pop 1" true (pop sim log = Some (1.0, 1));
  push sim log 3.0 3;
  push sim log 0.5 0;
  Alcotest.(check bool) "pop 0" true (pop sim log = Some (1.0, 0));
  Alcotest.(check bool) "pop 3" true (pop sim log = Some (3.0, 3));
  Alcotest.(check bool) "pop 5" true (pop sim log = Some (5.0, 5))

let heap_sort_prop =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority order" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_int))
    (fun items ->
      let sim = heap_sim () and log = ref [] in
      List.iter (fun (p, v) -> push sim log p v) items;
      let rec drain last =
        match pop sim log with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Stats.mean s);
  (* The bench tables read extremes and sample counts through these. *)
  check_float "min" 1.0 (Stats.percentile s 0.0);
  check_float "max" 4.0 (Stats.percentile s 100.0);
  check_float "one sample in four" 0.25 (Stats.fraction_at_least s 4.0)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "mean 0" 0.0 (Stats.mean s);
  check_float "p50 0" 0.0 (Stats.percentile s 50.0);
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "cdf empty" [] (Stats.cdf s ~points:5)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check_float "p50" 50.0 (Stats.percentile s 50.0);
  check_float "p90" 90.0 (Stats.percentile s 90.0);
  check_float "p100" 100.0 (Stats.percentile s 100.0);
  check_float "p1" 1.0 (Stats.percentile s 1.0)

let test_stats_percentile_after_add () =
  (* The sorted cache must invalidate on new samples. *)
  let s = Stats.create () in
  Stats.add s 10.0;
  ignore (Stats.percentile s 50.0);
  Stats.add s 1.0;
  check_float "p1 updated" 1.0 (Stats.percentile s 1.0)

let test_stats_fraction_at_least () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "half >= 3" 0.5 (Stats.fraction_at_least s 3.0);
  check_float "all >= 0" 1.0 (Stats.fraction_at_least s 0.0);
  check_float "none >= 5" 0.0 (Stats.fraction_at_least s 5.0)

let test_stats_cdf_monotone () =
  let s = Stats.create () in
  let rng = Prng.create 17 in
  for _ = 1 to 500 do
    Stats.add s (Prng.float rng 100.0)
  done;
  let cdf = Stats.cdf s ~points:20 in
  Alcotest.(check int) "20 points" 20 (List.length cdf);
  let rec monotone = function
    | (v1, f1) :: ((v2, f2) :: _ as rest) -> v1 <= v2 && f1 <= f2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone cdf)

let test_ewma_first_value () =
  let e = Ewma.create ~alpha:0.5 in
  check_float "first observation" 10.0 (Ewma.update e 10.0)

let test_ewma_converges () =
  let e = Ewma.create ~alpha:0.5 in
  ignore (Ewma.update e 0.0);
  for _ = 1 to 30 do
    ignore (Ewma.update e 100.0)
  done;
  Alcotest.(check bool) "converges to 100" true (Ewma.value e > 99.9)

let test_ewma_weighting () =
  let e = Ewma.create ~alpha:0.3 in
  ignore (Ewma.update e 10.0);
  check_float "weighted" (0.3 *. 20.0 +. 0.7 *. 10.0) (Ewma.update e 20.0)

let test_ewma_bad_alpha () =
  Alcotest.check_raises "alpha 0" (Invalid_argument "Ewma.create: alpha out of (0,1]")
    (fun () -> ignore (Ewma.create ~alpha:0.0))

let test_strutil_basics () =
  Alcotest.(check bool) "starts" true (Strutil.starts_with ~prefix:"foo" "foobar");
  Alcotest.(check bool) "not starts" false (Strutil.starts_with ~prefix:"bar" "foobar");
  Alcotest.(check bool) "ends" true (Strutil.ends_with ~suffix:"bar" "foobar");
  Alcotest.(check bool) "prefix longer" false (Strutil.starts_with ~prefix:"foobarbaz" "foo")

let test_strutil_split_first () =
  Alcotest.(check (option (pair string string))) "split" (Some ("a", "b=c"))
    (Strutil.split_first '=' "a=b=c");
  Alcotest.(check (option (pair string string))) "absent" None (Strutil.split_first '=' "abc")

let test_strutil_index_sub () =
  Alcotest.(check (option int)) "found" (Some 3) (Strutil.index_sub "abcabc" ~sub:"ab" ~start:1);
  Alcotest.(check (option int)) "missing" None (Strutil.index_sub "abc" ~sub:"xyz" ~start:0);
  Alcotest.(check (option int)) "empty sub" (Some 2) (Strutil.index_sub "abc" ~sub:"" ~start:2)

let test_strutil_replace_all () =
  Alcotest.(check string) "replace" "x-x-x" (Strutil.replace_all "a-a-a" ~sub:"a" ~by:"x");
  Alcotest.(check string) "no match" "abc" (Strutil.replace_all "abc" ~sub:"zz" ~by:"x");
  Alcotest.(check string) "empty sub unchanged" "abc" (Strutil.replace_all "abc" ~sub:"" ~by:"x");
  Alcotest.(check string) "overlapping" "bb" (Strutil.replace_all "aaaa" ~sub:"aa" ~by:"b")

let test_cothread_sync () =
  let result = ref None in
  Cothread.spawn (fun () -> 1 + 2) ~on_done:(fun v -> result := Some v)
    ~on_error:(fun _ -> result := Some (-1));
  Alcotest.(check (option int)) "sync result" (Some 3) !result

let test_cothread_await_resume () =
  let resume = ref None in
  let result = ref None in
  Cothread.spawn
    (fun () ->
      let v = Cothread.await (fun k -> resume := Some k) in
      v * 2)
    ~on_done:(fun v -> result := Some v)
    ~on_error:(fun _ -> ());
  Alcotest.(check (option int)) "suspended" None !result;
  (Option.get !resume) 21;
  Alcotest.(check (option int)) "resumed" (Some 42) !result

let test_cothread_error_after_resume () =
  let resume = ref None in
  let error = ref false in
  Cothread.spawn
    (fun () ->
      let (_ : int) = Cothread.await (fun k -> resume := Some k) in
      failwith "boom")
    ~on_done:(fun _ -> ())
    ~on_error:(fun _ -> error := true);
  (Option.get !resume) 1;
  Alcotest.(check bool) "error routed" true !error

let test_cothread_double_resume_ignored () =
  let resume = ref None in
  let count = ref 0 in
  Cothread.spawn
    (fun () -> Cothread.await (fun k -> resume := Some k))
    ~on_done:(fun (_ : int) -> incr count)
    ~on_error:(fun _ -> ());
  let k = Option.get !resume in
  k 1;
  k 2;
  Alcotest.(check int) "resumed once" 1 !count

let test_cothread_nested_awaits () =
  let resumes = Queue.create () in
  let result = ref None in
  Cothread.spawn
    (fun () ->
      let a = Cothread.await (fun k -> Queue.add k resumes) in
      let b = Cothread.await (fun k -> Queue.add k resumes) in
      a + b)
    ~on_done:(fun v -> result := Some v)
    ~on_error:(fun _ -> ());
  (Queue.pop resumes) 10;
  (Queue.pop resumes) 32;
  Alcotest.(check (option int)) "both resumed" (Some 42) !result

let suite =
  [
    Alcotest.test_case "prng: deterministic from seed" `Quick test_prng_deterministic;
    Alcotest.test_case "prng: seeds differ" `Quick test_prng_seeds_differ;
    Alcotest.test_case "prng: int stays in bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng: int rejects non-positive bound" `Quick
      test_prng_int_rejects_nonpositive;
    Alcotest.test_case "prng: float stays in bounds" `Quick test_prng_float_bounds;
    Alcotest.test_case "prng: bytes are the low bytes of int draws" `Quick
      test_prng_bytes_are_int_draws;
    Alcotest.test_case "prng: exponential non-negative" `Quick test_prng_exponential_positive;
    Alcotest.test_case "prng: exponential has requested mean" `Slow test_prng_exponential_mean;
    Alcotest.test_case "prng: pareto respects xmin" `Quick test_prng_pareto_min;
    Alcotest.test_case "prng: shuffle permutes" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng: split yields independent stream" `Quick test_prng_split_independent;
    Alcotest.test_case "heap: pops in priority order" `Quick test_heap_orders;
    Alcotest.test_case "heap: FIFO on equal priorities" `Quick test_heap_stable_on_ties;
    Alcotest.test_case "heap: empty behaviour" `Quick test_heap_empty;
    Alcotest.test_case "heap: interleaved push/pop" `Quick test_heap_interleaved;
    QCheck_alcotest.to_alcotest heap_sort_prop;
    Alcotest.test_case "stats: mean/min/max/count" `Quick test_stats_basic;
    Alcotest.test_case "stats: empty collection" `Quick test_stats_empty;
    Alcotest.test_case "stats: percentiles" `Quick test_stats_percentile;
    Alcotest.test_case "stats: percentile cache invalidation" `Quick
      test_stats_percentile_after_add;
    Alcotest.test_case "stats: fraction_at_least" `Quick test_stats_fraction_at_least;
    Alcotest.test_case "stats: cdf is monotone" `Quick test_stats_cdf_monotone;
    Alcotest.test_case "ewma: first value taken as-is" `Quick test_ewma_first_value;
    Alcotest.test_case "ewma: converges to constant input" `Quick test_ewma_converges;
    Alcotest.test_case "ewma: weighting formula" `Quick test_ewma_weighting;
    Alcotest.test_case "ewma: rejects bad alpha" `Quick test_ewma_bad_alpha;
    Alcotest.test_case "strutil: prefixes and suffixes" `Quick test_strutil_basics;
    Alcotest.test_case "strutil: split_first" `Quick test_strutil_split_first;
    Alcotest.test_case "strutil: index_sub" `Quick test_strutil_index_sub;
    Alcotest.test_case "strutil: replace_all" `Quick test_strutil_replace_all;
    Alcotest.test_case "cothread: synchronous completion" `Quick test_cothread_sync;
    Alcotest.test_case "cothread: await suspends and resumes" `Quick test_cothread_await_resume;
    Alcotest.test_case "cothread: exception after resume" `Quick test_cothread_error_after_resume;
    Alcotest.test_case "cothread: double resume ignored" `Quick
      test_cothread_double_resume_ignored;
    Alcotest.test_case "cothread: nested awaits" `Quick test_cothread_nested_awaits;
  ]
