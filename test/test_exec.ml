(** Domain-pool tests: results land in task order at any worker count,
    progress callbacks fire exactly once per task, and task exceptions
    propagate to the caller. *)

let check = Alcotest.check

let test_map_order_any_jobs () =
  let sequential = Exec.Pool.map ~jobs:1 25 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      let parallel = Exec.Pool.map ~jobs 25 (fun i -> i * i) in
      check
        (Alcotest.array Alcotest.int)
        (Printf.sprintf "jobs=%d matches sequential" jobs)
        sequential parallel)
    [ 2; 4; 9; 40 ]

let test_map_empty_and_single () =
  check Alcotest.int "no tasks" 0 (Array.length (Exec.Pool.map ~jobs:4 0 (fun i -> i)));
  check (Alcotest.array Alcotest.int) "one task" [| 7 |]
    (Exec.Pool.map ~jobs:4 1 (fun _ -> 7))

let test_uneven_tasks_balance () =
  (* tasks of very different cost still produce ordered results *)
  let f i =
    let spin = if i mod 5 = 0 then 40_000 else 10 in
    let acc = ref i in
    for _ = 1 to spin do
      acc := (!acc * 31) land 0xffff
    done;
    (i, !acc)
  in
  check
    (Alcotest.array (Alcotest.pair Alcotest.int Alcotest.int))
    "balanced run matches sequential"
    (Exec.Pool.map ~jobs:1 30 f)
    (Exec.Pool.map ~jobs:3 30 f)

let test_on_done_once_per_task () =
  let seen = Array.make 30 0 in
  let results =
    Exec.Pool.map ~jobs:4
      ~on_done:(fun i r ->
        check Alcotest.int "callback gets the result" (i * 3) r;
        seen.(i) <- seen.(i) + 1)
      30
      (fun i -> i * 3)
  in
  check Alcotest.int "all results" 30 (Array.length results);
  Array.iteri
    (fun i c -> check Alcotest.int (Printf.sprintf "task %d once" i) 1 c)
    seen

let test_exception_propagates () =
  match Exec.Pool.map ~jobs:3 8 (fun i -> if i = 5 then failwith "boom" else i) with
  | _ -> Alcotest.fail "expected the task failure to propagate"
  | exception Failure m -> check Alcotest.string "message" "boom" m

let test_submit_shutdown_drains () =
  let pool = Exec.Pool.create ~jobs:3 in
  let counter = Atomic.make 0 in
  let workers_seen = Atomic.make 0 in
  for _ = 1 to 50 do
    Exec.Pool.submit pool (fun wid ->
        (* worker ids are 0-based and dense *)
        if wid < 0 || wid >= 3 then Alcotest.fail "worker id out of range";
        Atomic.set workers_seen (Atomic.get workers_seen lor (1 lsl wid));
        Atomic.incr counter)
  done;
  Exec.Pool.shutdown pool;
  check Alcotest.int "every task ran" 50 (Atomic.get counter);
  match Exec.Pool.submit pool (fun _ -> ()) with
  | () -> Alcotest.fail "submit after shutdown must fail"
  | exception Invalid_argument _ -> ()

(* A raising task must not kill its worker or wedge shutdown: the queue
   drains, every domain is joined, and the earliest failure is re-raised
   only after the join. *)
let test_failure_drains_and_joins () =
  let pool = Exec.Pool.create ~jobs:3 in
  let ran = Atomic.make 0 in
  for i = 0 to 19 do
    Exec.Pool.submit pool (fun _ ->
        if i = 4 then failwith "task-4" else Atomic.incr ran)
  done;
  (match Exec.Pool.shutdown pool with
  | () -> Alcotest.fail "expected the task failure to re-raise"
  | exception Failure m -> check Alcotest.string "failure message" "task-4" m);
  (* the failing task did not take the rest of the queue down with it *)
  check Alcotest.int "other tasks still ran" 19 (Atomic.get ran)

(* With several failing tasks the surfaced exception is the one with the
   smallest submission index, independent of schedule. *)
let test_earliest_failure_wins () =
  let pool = Exec.Pool.create ~jobs:4 in
  for i = 0 to 15 do
    Exec.Pool.submit pool (fun _ ->
        if i mod 3 = 2 then failwith (Printf.sprintf "task-%d" i))
  done;
  match Exec.Pool.shutdown pool with
  | () -> Alcotest.fail "expected a failure"
  | exception Failure m -> check Alcotest.string "lowest index" "task-2" m

(* run_phase is a reusable barrier: phases never overlap, the pool
   survives many phases, and a failing phase — in a pool task or in the
   task the caller runs — re-raises once the phase drains while leaving
   the pool usable for the next phase. *)
let test_run_phase_reuse () =
  let pool = Exec.Pool.create ~jobs:3 in
  let acc = Array.make 12 (-1) in
  for phase = 0 to 9 do
    Exec.Pool.run_phase pool 12 (fun i ~worker:_ -> acc.(i) <- (phase * 100) + i);
    Array.iteri
      (fun i v ->
        check Alcotest.int
          (Printf.sprintf "phase %d slot %d" phase i)
          ((phase * 100) + i)
          v)
      acc
  done;
  (match Exec.Pool.run_phase pool 6 (fun i ~worker:_ -> if i = 3 then failwith "mid") with
  | () -> Alcotest.fail "expected phase failure"
  | exception Failure m -> check Alcotest.string "phase failure" "mid" m);
  (* task 0 runs on the calling domain; its failure is the earliest *)
  (match
     Exec.Pool.run_phase pool 6 (fun i ~worker:_ ->
         if i = 0 || i = 4 then failwith (Printf.sprintf "task-%d" i))
   with
  | () -> Alcotest.fail "expected phase failure"
  | exception Failure m -> check Alcotest.string "caller's task first" "task-0" m);
  (* wait cleared the failure; the pool is still usable *)
  let ok = Atomic.make 0 in
  Exec.Pool.run_phase pool 8 (fun _ ~worker:_ -> Atomic.incr ok);
  check Alcotest.int "pool reusable after failed phase" 8 (Atomic.get ok);
  Exec.Pool.shutdown pool

(* failed is observable mid-flight and wait consumes the failure. *)
let test_failed_flag_and_wait () =
  let pool = Exec.Pool.create ~jobs:2 in
  Exec.Pool.submit pool (fun _ -> failwith "early");
  (match Exec.Pool.wait pool with
  | () -> Alcotest.fail "expected wait to re-raise"
  | exception Failure m -> check Alcotest.string "wait message" "early" m);
  check Alcotest.bool "wait cleared the failure" false (Exec.Pool.failed pool);
  Exec.Pool.wait pool;
  Exec.Pool.shutdown pool

let suite =
  [
    ( "exec-pool",
      [
        Alcotest.test_case "order at any jobs" `Quick test_map_order_any_jobs;
        Alcotest.test_case "empty and single" `Quick test_map_empty_and_single;
        Alcotest.test_case "uneven tasks balance" `Quick test_uneven_tasks_balance;
        Alcotest.test_case "on_done once per task" `Quick test_on_done_once_per_task;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "submit/shutdown drains" `Quick test_submit_shutdown_drains;
        Alcotest.test_case "failure drains and joins" `Quick
          test_failure_drains_and_joins;
        Alcotest.test_case "earliest failure wins" `Quick
          test_earliest_failure_wins;
        Alcotest.test_case "run_phase reusable barrier" `Quick
          test_run_phase_reuse;
        Alcotest.test_case "failed flag and wait" `Quick
          test_failed_flag_and_wait;
      ] );
  ]
