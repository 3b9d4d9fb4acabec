(* Designer-session benchmark for statleak.

   Every workload runs whole rounds of one designer session:

     build     netlist generation, Setup.make, first full SSTA
     optimize  to timing yield eta = 0.95 at Tmax = 1.25 * D0
     certify   IS+CV Monte-Carlo yield estimate of each optimized design
     what-if   a closed loop of edit -> analyze requests (with savepoints
               and rollbacks) against a `statleak serve --jobs 1` daemon

   Every engine that takes a domain count gets jobs = 1 and the daemon is
   started with --jobs 1.  A host-speed kernel (see Calib) is sampled
   between the stages and what-if cycles of a round, and every reported
   time is calibrated by the samples around it.  Every output is checked
   against a computation made apart from the code under test, and the last
   line of standard output is the result object:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   With --trace 0 the metrics are the end-to-end ones; with --trace 1 one
   round runs with spans recorded (the benchmark's own around each layer
   call, and the libraries' Sl_obs.Trace spans) and is followed by layer
   probes that time single public calls. *)

module Json = Sl_util.Json
module Rng = Sl_util.Rng
module Trace = Sl_obs.Trace
module Circuit = Sl_netlist.Circuit
module Cell_kind = Sl_netlist.Cell_kind
module Generators = Sl_netlist.Generators
module Benchmarks = Sl_netlist.Benchmarks
module Bench_format = Sl_netlist.Bench_format
module Design = Sl_tech.Design
module Cell_lib = Sl_tech.Cell_lib
module Memo = Sl_tech.Memo
module Spec = Sl_variation.Spec
module Model = Sl_variation.Model
module Sta = Sl_sta.Sta
module Ssta = Sl_ssta.Ssta
module Canonical = Sl_ssta.Canonical
module Incremental = Sl_ssta.Incremental
module Leak_ssta = Sl_leakage.Leak_ssta
module Mc = Sl_mc.Mc
module Yield_seq = Sl_yield.Seq
module Estimate = Sl_yield.Estimate
module Stat_opt = Sl_opt.Stat_opt
module Batch_opt = Sl_opt.Batch_opt
module Setup = Statleak.Setup
module Client = Sl_serve.Client
module Protocol = Sl_serve.Protocol
module Session = Sl_serve.Session

let now = Unix.gettimeofday

(* A timed interval: (start, wall seconds). *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, (t0, now () -. t0))

(* The benchmark's spans: Sl_obs.Trace spans whose "parent" attribute
   names the enclosing benchmark span.  A span's layer is its name up to
   the first '.', so "ssta.analyze" belongs to the ssta layer. *)
let parents : string list ref = ref []

let span name f =
  if not (Trace.enabled ()) then f ()
  else begin
    let attrs = match !parents with p :: _ -> [ ("parent", p) ] | [] -> [] in
    parents := name :: !parents;
    Fun.protect
      ~finally:(fun () -> parents := List.tl !parents)
      (fun () -> Trace.span ~attrs name f)
  end

(* ---------- problem constants ---------- *)

let eta = 0.95
let tmax_factor = 1.25
let cert_halfwidth = 0.005     (* IS+CV target CI half-width *)
let cert_max_samples = 65_536
let cross_samples = 1024       (* plain-MC dies of the independent check *)
let z95 = 1.959964
let setup_reps = 5             (* set-ups per circuit and round; setup_s is their median *)
let whatif_cycle = 40          (* savepoint every 40 what-ifs, rolled back by
                                  the 40th, so the design never drifts far *)
let whatif_cycles = 14         (* per round: 560 distinct what-ifs, so two
                                  rounds put >= 10 beyond p99 *)
let whatif_replays = 2         (* executions of each cycle; a what-if's
                                  latency is its faster execution *)
let min_rounds = 2

(* ---------- statistics ---------- *)

let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0

(* ---------- accounting and checks ---------- *)

type tally = { mutable attempted : int; mutable failed : int }

let kinds = [ "setup"; "optimize"; "certify"; "whatif" ]
let tallies = List.map (fun k -> (k, { attempted = 0; failed = 0 })) kinds
let tally k = List.assoc k tallies
let attempt k = (tally k).attempted <- (tally k).attempted + 1
let fail k = (tally k).failed <- (tally k).failed + 1
let problems : string list ref = ref []
let inconclusive = ref 0

let check ok what =
  if not ok then begin
    problems := what :: !problems;
    Printf.eprintf "CHECK FAILED: %s\n%!" what
  end

let bits = Protocol.bits_of_float

(* ---------- circuits ---------- *)

type circ = { cname : string; make : unit -> Circuit.t }

let suite_circ name =
  { cname = name; make = (fun () -> Option.get (Benchmarks.by_name name)) }

(* The generated circuits use fixed generator seeds, so the designs that
   are optimized and certified are the same on every run. *)
let dag name ~seed ~gates ~inputs ~outputs =
  {
    cname = name;
    make = (fun () -> Generators.random_dag_named ~name ~seed ~gates ~inputs ~outputs);
  }

let dag2k = dag "dag2k" ~seed:3001 ~gates:2000 ~inputs:100 ~outputs:64
let dag4k = dag "dag4k" ~seed:12001 ~gates:4000 ~inputs:150 ~outputs:64

(* 4 stages x 192 wide x 4 layers = 3072 gates; every register becomes a
   pseudo-input/pseudo-output pair, so 768 outputs. *)
let pipe3k =
  {
    cname = "pipe3k";
    make =
      (fun () ->
        Bench_format.parse_string ~sequential:`Cut ~name:"pipe3k"
          (Generators.seq_pipeline_bench ~stages:4 ~width:192 ~layers:4));
  }

(* The [k]-th what-if move: a random non-PI gate gets another size, or
   every fourth move the other threshold, never its current one.  A
   threshold swap mostly takes about 1 ms and a resize 6-10 ms; with the
   kinds drawn half and half, p50 sat in the gap between the two and moved
   with the draw, so the mix is fixed and p50 falls among the resizes. *)
let pick_edit rng (d : Design.t) gates k =
  let id = gates.(Rng.int rng (Array.length gates)) in
  let lib = d.Design.lib in
  let other cur n = (cur + 1 + Rng.int rng (n - 1)) mod n in
  if k mod 4 = 3 then (id, `Vth (other d.vth_idx.(id) (Cell_lib.num_vth lib)))
  else (id, `Size (other d.size_idx.(id) (Cell_lib.num_sizes lib)))

let non_pi (c : Circuit.t) =
  Array.of_list
    (List.filter_map
       (fun (g : Circuit.gate) -> if g.kind = Cell_kind.Pi then None else Some g.id)
       (Array.to_list c.Circuit.gates))

(* ---------- build stage ---------- *)

let build c =
  let circuit = span "netlist.build" c.make in
  let su = span "setup.make" (fun () -> Setup.make ~name:c.cname circuit) in
  let d = Setup.fresh_design su in
  let r = span "ssta.analyze" (fun () -> Ssta.analyze ~jobs:1 d su.Setup.model) in
  ignore (span "ssta.backward" (fun () -> Ssta.backward ~jobs:1 circuit r));
  (su, d)

(* [setup_reps] builds of one circuit; returns their intervals and the
   last build, which the session goes on with. *)
let build_reps c =
  let builds =
    List.init setup_reps (fun _ ->
        attempt "setup";
        let b = timed (fun () -> build c) in
        Calib.sample ();
        b)
  in
  (List.map snd builds, fst (List.nth builds (setup_reps - 1)))

(* ---------- optimize ---------- *)

type opt_counts = {
  trials : int;
  moves : int;
  rollbacks : int;
  propagations : int;
  syncs : int;
  minor_words : float;
  major_collections : int;
}

let no_counts =
  {
    trials = 0;
    moves = 0;
    rollbacks = 0;
    propagations = 0;
    syncs = 0;
    minor_words = 0.0;
    major_collections = 0;
  }

let add_counts a b =
  {
    trials = a.trials + b.trials;
    moves = a.moves + b.moves;
    rollbacks = a.rollbacks + b.rollbacks;
    propagations = a.propagations + b.propagations;
    syncs = a.syncs + b.syncs;
    minor_words = a.minor_words +. b.minor_words;
    major_collections = a.major_collections + b.major_collections;
  }

let tmax_of su = Setup.tmax su ~factor:tmax_factor

(* Runs the optimizer in this process; returns (feasible, counts,
   interval). *)
let optimize_inproc mode su d =
  let tmax = tmax_of su and model = su.Setup.model in
  let (feasible, counts), dt =
    timed (fun () ->
        let g0 = Gc.quick_stat () in
        let feasible, trials, moves, rollbacks, propagations, syncs =
          span "opt.optimize" (fun () ->
              match mode with
              | `Stat ->
                let s =
                  Stat_opt.optimize { (Stat_opt.default_config ~tmax ~eta) with jobs = 1 } d model
                in
                ( s.Stat_opt.feasible, s.trials, s.vth_moves + s.size_moves, s.rollbacks,
                  s.propagated_gates, s.refreshes )
              | `Batch ->
                let s =
                  Batch_opt.optimize { (Batch_opt.default_config ~tmax ~eta) with jobs = 1 } d model
                in
                ( s.Batch_opt.feasible, s.trials, s.vth_moves + s.size_moves, s.rollbacks,
                  s.propagated_gates, s.syncs ))
        in
        let g1 = Gc.quick_stat () in
        ( feasible,
          {
            trials;
            moves;
            rollbacks;
            propagations;
            syncs;
            minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
            major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
          } ))
  in
  Calib.sample ();
  (feasible, counts, dt)

(* Independent checks of an optimized design: from-scratch SSTA yield
   >= eta, every index inside the library's ranges, and E[leak] of a
   fresh accumulator below the initial design's.  Returns E[leak], nA. *)
let check_design label su (d : Design.t) =
  span "check.design" @@ fun () ->
  let model = su.Setup.model and tmax = tmax_of su in
  let r = span "ssta.analyze" (fun () -> Ssta.analyze ~jobs:1 d model) in
  let y = Ssta.timing_yield r ~tmax in
  check (y >= eta) (Printf.sprintf "%s: from-scratch SSTA yield %.5f < eta" label y);
  let lib = d.Design.lib and c = d.Design.circuit in
  let nv = Cell_lib.num_vth lib and ns = Cell_lib.num_sizes lib in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.kind <> Cell_kind.Pi then begin
        let v = d.vth_idx.(g.id) and s = d.size_idx.(g.id) in
        check (v >= 0 && v < nv && s >= 0 && s < ns)
          (Printf.sprintf "%s: gate %s has vth %d / size %d out of range" label g.name v s)
      end)
    c.Circuit.gates;
  let leak = span "leakage.create" (fun () -> Leak_ssta.mean (Leak_ssta.create d model)) in
  let init =
    span "leakage.create" (fun () ->
        Leak_ssta.mean (Leak_ssta.create (Setup.fresh_design su) model))
  in
  check (leak < init)
    (Printf.sprintf "%s: optimized E[leak] %.3f not below initial %.3f" label leak init);
  leak

(* ---------- certify ---------- *)

type cert = { value : float; ci_lo : float; ci_hi : float; dies : int; ess : float }

(* Independent checks of one certification: CI half-width within target;
   agreement with plain MC on a disjoint seed within the two CIs; the
   analytic E[leak] within 1% (the model's stated accuracy) plus the MC
   error of the plain-MC leak mean. *)
let check_certificate label ~mc_seed su d (e : cert) =
  span "check.certificate" @@ fun () ->
  let hw = (e.ci_hi -. e.ci_lo) /. 2.0 in
  check (hw <= cert_halfwidth)
    (Printf.sprintf "%s: CI half-width %.5f above target %.5f" label hw cert_halfwidth);
  let model = su.Setup.model and tmax = tmax_of su in
  let r =
    span "mc.run" (fun () -> Mc.run ~jobs:1 ~seed:mc_seed ~samples:cross_samples d model)
  in
  let n = float_of_int cross_samples in
  let p = Mc.timing_yield r ~tmax in
  let hw_mc = z95 *. sqrt (p *. (1.0 -. p) /. n) in
  check
    (Float.abs (e.value -. p) <= hw +. hw_mc)
    (Printf.sprintf "%s: IS+CV %.5f disagrees with plain MC %.5f (+-%.5f)" label e.value p
       hw_mc);
  let analytic = span "leakage.create" (fun () -> Leak_ssta.mean (Leak_ssta.create d model)) in
  let mc_leak = Mc.leak_mean r in
  let tol = (0.01 *. analytic) +. (z95 *. Mc.leak_std r /. sqrt n) in
  check
    (Float.abs (analytic -. mc_leak) <= tol)
    (Printf.sprintf "%s: analytic E[leak] %.3f vs MC %.3f beyond %.3f" label analytic
       mc_leak tol)

(* Returns the estimate and its interval. *)
let certify_inproc ~seed su d =
  let e, dt =
    timed (fun () ->
        span "yield.certify" (fun () ->
            Yield_seq.estimate ~jobs:1 ~method_:Yield_seq.Is_cv ~target_halfwidth:cert_halfwidth
              ~max_samples:cert_max_samples ~seed ~tmax:(tmax_of su) d su.Setup.model))
  in
  Calib.sample ();
  ( {
      value = e.Estimate.value;
      ci_lo = e.ci_lo;
      ci_hi = e.ci_hi;
      dies = e.samples_used;
      ess = e.ess;
    },
    dt )

(* ---------- the daemon ---------- *)

type daemon = { pid : int; socket : string; client : Client.t }

let start_daemon ~cli ~dir =
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--jobs"; "1"; "--max-sessions"; "16"; "--quiet" |]
      devnull Unix.stderr Unix.stderr
  in
  Unix.close devnull;
  let deadline = now () +. 60.0 in
  let rec connect () =
    match Client.connect ~socket with
    | c -> c
    | exception (Unix.Unix_error _ as e) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "statleak serve exited during start-up");
      if now () > deadline then begin
        Unix.kill pid Sys.sigterm;
        ignore (Unix.waitpid [] pid);
        raise e
      end;
      Unix.sleepf 0.02;
      connect ()
  in
  { pid; socket; client = connect () }

let read_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun k -> k)
        else scan ()
    in
    let k = scan () in
    close_in ic;
    k

(* Asks the daemon to stop and waits for it; returns its peak RSS, kB. *)
let stop_daemon d =
  let hwm = read_hwm_kb (string_of_int d.pid) in
  (try ignore (Client.request d.client (Json.obj [ ("type", Json.Str "shutdown") ]))
   with _ -> Unix.kill d.pid Sys.sigterm);
  Client.close d.client;
  ignore (Unix.waitpid [] d.pid);
  (try Sys.remove d.socket with Sys_error _ -> ());
  hwm

let kill_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  Client.close d.client

let request d fields = Client.request d.client (Json.obj fields)
let str s = Json.Str s
let num x = Json.Num x
let inum i = Json.Num (float_of_int i)

let analysis_bits resp =
  List.map
    (fun f -> Option.value ~default:"?" (Json.str (f ^ "_bits") resp))
    [ "yield"; "delay_mean"; "delay_sigma"; "leak_mean" ]

(* The same four values computed in this process from scratch. *)
let reference_bits su d =
  let model = su.Setup.model in
  let r = span "ssta.analyze" (fun () -> Ssta.analyze ~jobs:1 d model) in
  let leak = span "leakage.create" (fun () -> Leak_ssta.mean (Leak_ssta.create d model)) in
  let cd = r.Ssta.circuit_delay in
  [
    bits (Ssta.timing_yield r ~tmax:(tmax_of su));
    bits cd.Canonical.mean;
    bits (Canonical.sigma cd);
    bits leak;
  ]

let load_text d ~session ~name ~text =
  request d
    [
      ("type", str "load");
      ("session", str session);
      ("netlist", Json.obj [ ("name", str name); ("text", str text) ]);
    ]

let close_session d name = ignore (request d [ ("type", str "close"); ("session", str name) ])

(* ---------- what-if phase ---------- *)

type snapshot = { s_vth : int array; s_size : int array; s_bits : string list }

(* One what-if request as sent, for the in-process replay of the traced
   run's first stream. *)
type op = Edit of Session.edit | Save of string | Back of string

(* One design held by the daemon, mirrored in this process: [local] gets
   every edit and rollback the daemon gets, so the final daemon analysis
   can be checked against a from-scratch analysis of [local]. *)
type whatif = {
  daemon : daemon;
  session : string;
  text : string;           (* the netlist text the daemon loaded *)
  su : Setup.t;            (* built here from that very text *)
  local : Design.t;
  gates : int array;       (* non-PI gate ids *)
  mutable last_bits : string list;
  saves : (string, snapshot) Hashtbl.t;
  mutable reqs : (int * (float * float)) list;
      (* every timed execution: (what-if number, interval) *)
  mutable next_req : int;
  mutable rb_lats : float list;  (* wall seconds per rollback *)
  mutable log : (op * float) list option;
      (* traced runs: the ops of the running first stream with their wall
         seconds, newest first *)
  mutable log_start : int array * int array;  (* assignment it starts from *)
  mutable first_stream : (op * float) list;
}

(* The mirror of a freshly loaded session; [resp] is the load response. *)
let mirror d ~session ~name ~text ~traced resp =
  let circuit = Bench_format.parse_string ~name text in
  let su = span "setup.make" (fun () -> Setup.make ~name circuit) in
  {
    daemon = d;
    session;
    text;
    su;
    local = Setup.fresh_design su;
    gates = non_pi circuit;
    last_bits = analysis_bits resp;
    saves = Hashtbl.create 4;
    reqs = [];
    next_req = 0;
    rb_lats = [];
    log = (if traced then Some [] else None);
    log_start = ([||], [||]);
    first_stream = [];
  }

let gate_name w id = (Circuit.gate w.local.Design.circuit id).Circuit.name

let session_req w typ extra =
  request w.daemon ([ ("type", str typ); ("session", str w.session) ] @ extra)

let set_assignment (d : Design.t) vth size =
  Array.blit vth 0 d.Design.vth_idx 0 (Array.length vth);
  Array.blit size 0 d.Design.size_idx 0 (Array.length size)

let log_op w op dt = Option.iter (fun l -> w.log <- Some ((op, dt) :: l)) w.log

(* Brings the daemon's design to [target]'s assignment (matched by gate
   name) with one bulk edit, then analyzes. *)
let push_assignment w (target : Design.t) =
  attempt "whatif";
  let ops = ref [] in
  let op kind name v = Json.obj [ ("op", str kind); ("gate", str name); ("value", inum v) ] in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.kind <> Cell_kind.Pi then begin
        let id = (Option.get (Circuit.find w.local.Design.circuit g.name)).Circuit.id in
        let v = target.vth_idx.(g.id) and s = target.size_idx.(g.id) in
        if v <> w.local.vth_idx.(id) then begin
          Design.set_vth w.local id v;
          ops := op "reassign-vth" g.name v :: !ops
        end;
        if s <> w.local.size_idx.(id) then begin
          Design.set_size w.local id s;
          ops := op "resize" g.name s :: !ops
        end
      end)
    target.Design.circuit.Circuit.gates;
  match
    span "serve.edit" (fun () ->
        ignore (session_req w "edit" [ ("ops", Json.List !ops) ]);
        session_req w "analyze" [])
  with
  | resp -> w.last_bits <- analysis_bits resp
  | exception Client.Server_error msg ->
    fail "whatif";
    Printf.eprintf "bulk edit error frame: %s\n%!" msg

let checkpoint w name =
  attempt "whatif";
  match span "serve.checkpoint" (fun () -> session_req w "checkpoint" [ ("name", str name) ]) with
  | _ ->
    log_op w (Save name) nan;
    Hashtbl.replace w.saves name
      {
        s_vth = Array.copy w.local.vth_idx;
        s_size = Array.copy w.local.size_idx;
        s_bits = w.last_bits;
      }
  | exception Client.Server_error _ -> fail "whatif"

(* A rollback what-if: its analysis must be bit-identical to the one
   recorded when the savepoint was taken.  Returns its interval. *)
let rollback w name =
  attempt "whatif";
  let sp = Hashtbl.find w.saves name in
  let t0 = now () in
  match span "serve.rollback" (fun () -> session_req w "rollback" [ ("name", str name) ]) with
  | exception Client.Server_error msg ->
    fail "whatif";
    Printf.eprintf "rollback error frame: %s\n%!" msg;
    None
  | resp ->
    let dt = now () -. t0 in
    log_op w (Back name) dt;
    w.rb_lats <- dt :: w.rb_lats;
    set_assignment w.local sp.s_vth sp.s_size;
    w.last_bits <- analysis_bits resp;
    if w.last_bits <> sp.s_bits then begin
      fail "whatif";
      Printf.eprintf "rollback to %s: analysis [%s] differs from the savepoint's [%s]\n%!" name
        (String.concat " " w.last_bits) (String.concat " " sp.s_bits)
    end;
    Some (t0, dt)

let apply_edit (d : Design.t) (id, e) =
  match e with `Size v -> Design.set_size d id v | `Vth v -> Design.set_vth d id v

(* An edit -> analyze what-if; returns its interval. *)
let edit_analyze w (id, e) =
  attempt "whatif";
  apply_edit w.local (id, e);
  let op, v, edit =
    match e with
    | `Size v -> ("resize", v, Session.Resize (gate_name w id, v))
    | `Vth v -> ("reassign-vth", v, Session.Reassign_vth (gate_name w id, v))
  in
  let t0 = now () in
  match
    span "serve.whatif" (fun () ->
        ignore
          (session_req w "edit"
             [
               ( "ops",
                 Json.List
                   [ Json.obj [ ("op", str op); ("gate", str (gate_name w id)); ("value", inum v) ] ]
               );
             ]);
        session_req w "analyze" [])
  with
  | resp ->
    let dt = now () -. t0 in
    log_op w (Edit edit) dt;
    w.last_bits <- analysis_bits resp;
    Some (t0, dt)
  | exception Client.Server_error msg ->
    fail "whatif";
    Printf.eprintf "what-if error frame: %s\n%!" msg;
    None

(* [cycles] what-if cycles.  A cycle is a savepoint, [whatif_cycle] - 1
   edits and a rollback to the savepoint as its last what-if, so it ends
   where it started; it is executed [whatif_replays] times in a row.  The
   host-speed kernel is sampled after each execution, outside the timed
   requests. *)
let whatif_stream w rng ~cycles =
  (match w.log with
  | Some [] -> w.log_start <- (Array.copy w.local.vth_idx, Array.copy w.local.size_idx)
  | _ -> ());
  for _ = 1 to cycles do
    let vth = Array.copy w.local.vth_idx and size = Array.copy w.local.size_idx in
    let edits =
      List.init (whatif_cycle - 1) (fun k ->
          let e = pick_edit rng w.local w.gates k in
          apply_edit w.local e;
          e)
    in
    set_assignment w.local vth size;
    let first = w.next_req in
    w.next_req <- first + whatif_cycle;
    for _ = 1 to whatif_replays do
      checkpoint w "sp";
      List.iteri
        (fun k e -> Option.iter (fun iv -> w.reqs <- (first + k, iv) :: w.reqs) (edit_analyze w e))
        edits;
      Option.iter
        (fun iv -> w.reqs <- (first + whatif_cycle - 1, iv) :: w.reqs)
        (rollback w "sp");
      Calib.sample ()
    done
  done;
  Option.iter
    (fun l ->
      w.first_stream <- List.rev l;
      w.log <- None)
    w.log

let final_check w =
  attempt "whatif";
  match session_req w "analyze" [] with
  | exception Client.Server_error _ -> fail "whatif"
  | resp ->
    let daemon_bits = analysis_bits resp in
    let ref_bits = span "check.final" (fun () -> reference_bits w.su w.local) in
    check (daemon_bits = ref_bits)
      (Printf.sprintf "%s: final daemon analysis [%s] differs from from-scratch [%s]" w.session
         (String.concat " " daemon_bits) (String.concat " " ref_bits))

(* ---------- rounds ---------- *)

(* A round's timed intervals stay raw until the run is over; then each
   is calibrated by the kernel samples around it. *)
type round = {
  setups : (float * float) list list;  (* per circuit, its builds or loads *)
  opts : (float * float) list;         (* per design *)
  certs : (float * float) list;
  leak_final : float;       (* nA *)
  counts : opt_counts;
  dies : int;
  ess : float;
  load_s : float;           (* wall seconds of the what-if session's load *)
  wi : whatif;
}

type ctx = {
  workload : string;
  seed : int;
  daemon : daemon;
  traced : bool;
  firsts : (string, int array * int array * cert) Hashtbl.t;
      (* each design's first-round result, which later rounds repeat *)
}

(* The what-if edits depend on the run seed and the round; everything
   that is optimized or certified does not. *)
let whatif_rng ctx round phase = Rng.stream ~seed:((ctx.seed * 7919) + phase) round

let verdict label (e : cert) =
  attempt "certify";
  let v =
    if e.ci_hi < eta then begin
      fail "certify";
      "FAILED  "
    end
    else if e.ci_lo < eta then begin
      incr inconclusive;
      "inconcl."
    end
    else "passed  "
  in
  Printf.printf "  certify %-8s %s %.4f [%.4f, %.4f]\n" label v e.value e.ci_lo e.ci_hi

(* The first round checks a design and its certificate against
   independent computations (returning [Some] E[leak]); later rounds must
   repeat the first bit for bit. *)
let first_or_repeat ctx ~round label (d : Design.t) (e : cert) checks =
  match Hashtbl.find_opt ctx.firsts label with
  | Some (vth, size, e0) ->
    check
      (vth = d.Design.vth_idx && size = d.size_idx && e = e0)
      (Printf.sprintf "%s: round %d differs from round 1" label (round + 1));
    None
  | None ->
    Hashtbl.replace ctx.firsts label (Array.copy d.vth_idx, Array.copy d.size_idx, e);
    Some (checks ())

(* One circuit's stages in a round. *)
type row = {
  r_setup : (float * float) list;
  r_opt : float * float;
  r_cert : float * float;
  r_leak : float option;  (* first round only *)
  r_counts : opt_counts;
  r_est : cert;
  r_design : Design.t;
}

(* greedy-suite and batch-pipeline: each circuit is built [setup_reps]
   times, optimized and certified in this process; then the first
   circuit's optimized design goes to the daemon as .bench text and its
   what-if stream runs there. *)
let local_session ctx ~round ~mode ~circs =
  let rows =
    List.mapi
      (fun i c ->
        let r_setup, (su, d) = build_reps c in
        attempt "optimize";
        let feasible, r_counts, r_opt = optimize_inproc mode su d in
        if not feasible then fail "optimize";
        let seed = 101 + i in
        let e, r_cert = certify_inproc ~seed su d in
        verdict c.cname e;
        let r_leak =
          first_or_repeat ctx ~round c.cname d e (fun () ->
              let leak = check_design c.cname su d in
              check_certificate c.cname ~mc_seed:(1_000_003 + seed) su d e;
              leak)
        in
        { r_setup; r_opt; r_cert; r_leak; r_counts; r_est = e; r_design = d })
      circs
  in
  let d0 = (List.hd rows).r_design in
  let name = (List.hd circs).cname in
  let text = span "netlist.write" (fun () -> Bench_format.to_string d0.Design.circuit) in
  let session = Printf.sprintf "%s-%d" name round in
  attempt "whatif";
  let t0 = now () in
  let resp = span "serve.load" (fun () -> load_text ctx.daemon ~session ~name ~text) in
  let load_s = now () -. t0 in
  let w = mirror ctx.daemon ~session ~name ~text ~traced:ctx.traced resp in
  push_assignment w d0;
  whatif_stream w (whatif_rng ctx round 0) ~cycles:whatif_cycles;
  final_check w;
  close_session ctx.daemon session;
  {
    setups = List.map (fun r -> r.r_setup) rows;
    opts = List.map (fun r -> r.r_opt) rows;
    certs = List.map (fun r -> r.r_cert) rows;
    leak_final = sum (List.map (fun r -> Option.value ~default:0.0 r.r_leak) rows);
    counts = List.fold_left (fun a r -> add_counts a r.r_counts) no_counts rows;
    dies = List.fold_left (fun a r -> a + r.r_est.dies) 0 rows;
    ess = sum (List.map (fun r -> r.r_est.ess) rows);
    load_s;
    wi = w;
  }

let parse_csv s = Array.of_list (List.map int_of_string (String.split_on_char ',' s))

(* serve-whatif: the whole session goes through the daemon.  Set-up is
   the load of the netlist: the session that stays, and [setup_reps] - 1
   more that are closed again.  [serve_cycles_before] what-if cycles run
   on the loaded design, then one optimize and one yield request, then the
   other cycles on the optimized design.  What-ifs on the optimized design
   take longer; with as many cycles on either side, p50 fell in the gap
   between the two kinds and jumped with the edit stream. *)
let serve_cycles_before = 4

let serve_session ctx ~round ~name ~text =
  let loads = ref [] in
  let load session =
    attempt "setup";
    let resp, iv = timed (fun () -> span "serve.load" (fun () -> load_text ctx.daemon ~session ~name ~text)) in
    loads := iv :: !loads;
    Calib.sample ();
    resp
  in
  let session = Printf.sprintf "w%d" round in
  let w = mirror ctx.daemon ~session ~name ~text ~traced:ctx.traced (load session) in
  for k = 2 to setup_reps do
    let extra = Printf.sprintf "w%d-%d" round k in
    ignore (load extra);
    close_session ctx.daemon extra
  done;
  whatif_stream w (whatif_rng ctx round 0) ~cycles:serve_cycles_before;
  attempt "optimize";
  let opt_resp, opt_s =
    timed (fun () ->
        span "opt.optimize" (fun () ->
            session_req w "optimize"
              [
                ("mode", str "batch"); ("eta", num eta); ("jobs", inum 1); ("detail", Json.Bool true);
              ]))
  in
  Calib.sample ();
  if Json.bool "feasible" opt_resp <> Some true then fail "optimize";
  let assign = Option.get (Json.mem "assignment" opt_resp) in
  set_assignment w.local
    (parse_csv (Option.get (Json.str "vth" assign)))
    (parse_csv (Option.get (Json.str "size" assign)));
  let analysis = Option.get (Json.mem "analysis" opt_resp) in
  w.last_bits <- analysis_bits analysis;
  let seed = 211 in
  let yield_resp, cert_s =
    timed (fun () ->
        span "yield.certify" (fun () ->
            session_req w "yield"
              [
                ("method", str "is+cv");
                ("halfwidth", num cert_halfwidth);
                ("max_samples", inum cert_max_samples);
                ("seed", inum seed);
                ("jobs", inum 1);
              ]))
  in
  Calib.sample ();
  let f k = Option.get (Json.num k yield_resp) in
  let e =
    { value = f "value"; ci_lo = f "ci_lo"; ci_hi = f "ci_hi"; dies = int_of_float (f "samples"); ess = f "ess" }
  in
  verdict name e;
  let get k = Option.value ~default:0 (Json.int k opt_resp) in
  let counts =
    { no_counts with trials = get "trials"; moves = get "vth_moves" + get "size_moves"; rollbacks = get "rollbacks" }
  in
  let checked =
    first_or_repeat ctx ~round name w.local e (fun () ->
        let leak = check_design name w.su w.local in
        check
          (Json.str "leak_mean_bits" analysis = Some (bits leak))
          "serve-whatif: optimize analysis E[leak] differs from a fresh Leak_ssta.create";
        check_certificate name ~mc_seed:(1_000_003 + seed) w.su w.local e;
        if ctx.traced then begin
          (* the same optimization in this process gives the optimizer's
             own counters and GC figures, and must land on the same
             assignment *)
          let d = Setup.fresh_design w.su in
          let feasible, own, _ = optimize_inproc `Batch w.su d in
          check
            (feasible && own.trials = counts.trials && own.moves = counts.moves
            && d.Design.vth_idx = w.local.vth_idx && d.size_idx = w.local.size_idx)
            "serve-whatif: daemon optimize differs from the same optimize in process";
          (leak, own)
        end
        else (leak, counts))
  in
  whatif_stream w (whatif_rng ctx round 1) ~cycles:(whatif_cycles - serve_cycles_before);
  final_check w;
  close_session ctx.daemon session;
  {
    setups = [ !loads ];
    opts = [ opt_s ];
    certs = [ cert_s ];
    leak_final = (match checked with Some (l, _) -> l | None -> 0.0);
    counts = (match checked with Some (_, c) -> c | None -> counts);
    dies = e.dies;
    ess = e.ess;
    load_s = median (List.map snd !loads);
    wi = w;
  }

(* ---------- workloads ---------- *)

let greedy_circs = dag2k :: List.map suite_circ [ "alu32"; "mult16"; "rand2300" ]
let workloads = [ "greedy-suite"; "batch-pipeline"; "serve-whatif" ]

let run_round ctx round =
  match ctx.workload with
  | "greedy-suite" -> local_session ctx ~round ~mode:`Stat ~circs:greedy_circs
  | "batch-pipeline" -> local_session ctx ~round ~mode:`Batch ~circs:[ pipe3k ]
  | "serve-whatif" ->
    let text = span "netlist.build" (fun () -> Bench_format.to_string (dag4k.make ())) in
    serve_session ctx ~round ~name:dag4k.cname ~text
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---------- layer probes (traced runs) ---------- *)

let median_time reps f = median (List.init reps (fun _ -> snd (snd (timed f))))

(* Set-up layers, summed over the circuits the workload builds; each
   figure is the median over [setup_reps] repetitions. *)
let setup_probes circs =
  let lib = Cell_lib.default () in
  let per c =
    let circuit = c.make () in
    let d = Design.create ~size_idx:2 lib circuit in
    let model = Model.build Spec.default circuit in
    let r = Ssta.analyze ~jobs:1 d model in
    let words =
      let w0 = Gc.minor_words () in
      ignore (Ssta.analyze ~jobs:1 d model);
      Gc.minor_words () -. w0
    in
    [
      ("netlist.build_s", median_time setup_reps c.make, "s");
      ("variation.model_build_s", median_time setup_reps (fun () -> Model.build Spec.default circuit), "s");
      ("sta.d0_s", median_time setup_reps (fun () -> Sta.dmax (Design.create ~size_idx:2 lib circuit)), "s");
      ("ssta.analyze_s", median_time setup_reps (fun () -> Ssta.analyze ~jobs:1 d model), "s");
      ("ssta.backward_s", median_time setup_reps (fun () -> Ssta.backward ~jobs:1 circuit r), "s");
      ("ssta.analyze_minor_mwords", words /. 1e6, "Mword");
      ("leakage.create_ms", 1e3 *. median_time setup_reps (fun () -> Leak_ssta.create d model), "ms");
    ]
  in
  match List.map per circs with
  | [] -> []
  | first :: rest -> List.fold_left (List.map2 (fun (k, a, u) (_, b, _) -> (k, a +. b, u))) first rest

(* Move-stream layers on the workload's what-if design. *)
let move_probes ~seed su (d0 : Design.t) =
  let d = Design.copy d0 in
  let model = su.Setup.model in
  let memo = Memo.create d.Design.lib in
  Memo.prefill memo d;
  let inc = Incremental.create ~memo ~jobs:1 d model ~tmax:(tmax_of su) in
  let leak = Leak_ssta.create d model in
  let rng = Rng.stream ~seed 99 in
  let gates = non_pi d.Design.circuit in
  let moves = 500 in
  let sync_t = ref [] and words = ref 0.0 and upd = ref 0.0 in
  for k = 1 to moves do
    let id =
      match pick_edit rng d gates k with
      | id, `Size v ->
        Design.set_size d id v;
        id
      | id, `Vth v ->
        Design.set_vth d id v;
        id
    in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    Incremental.update_gate inc id;
    Incremental.sync inc;
    let t1 = now () in
    words := !words +. (Gc.minor_words () -. w0);
    sync_t := (t1 -. t0) :: !sync_t;
    let t2 = now () in
    Leak_ssta.update_gate leak id;
    upd := !upd +. (now () -. t2)
  done;
  let refresh = median_time 50 (fun () -> Leak_ssta.refresh leak) in
  let rank =
    median_time 5 (fun () ->
        Stat_opt.rank_candidates ~sensitivity:Stat_opt.Stat_leak_per_yield ~allow_vth:true
          ~allow_size:true ~tmax:(tmax_of su) ~memo ~leak ~path_mu:(Incremental.path_mu inc)
          ~path_sigma:(Incremental.path_sigma inc) ~jobs:1 d)
  in
  let mc = median_time 3 (fun () -> Mc.run_dies ~jobs:1 ~seed:7 ~first:0 ~count:256 d0 model) in
  [
    ("ssta.sync_us", 1e6 *. median !sync_t, "us");
    ("ssta.sync_minor_words", !words /. float_of_int moves, "word");
    ("leakage.update_gate_ns", 1e9 *. !upd /. float_of_int moves, "ns");
    ("leakage.refresh_us", 1e6 *. refresh, "us");
    ("opt.rank_ms", 1e3 *. rank, "ms");
    ("mc.dies_per_s", 256.0 /. mc, "1/s");
  ]

(* In-process Session: the daemon's per-request work without the wire.
   The traced round's first what-if stream is replayed request for
   request from the assignment it started at, four times: twice without
   spans and twice with them, alternately.  Returns the in-process
   latency (p50 over requests of the faster untraced execution), the
   wire overhead (p50 over requests of socket minus in-process latency),
   the tracing overhead and the JSON codec time. *)
let session_probes (w : whatif) =
  let name = w.local.Design.circuit.Circuit.name in
  let memo = Memo.create (Cell_lib.default ()) in
  Memo.prefill_kinds memo ~max_arity:12;
  Memo.freeze memo;
  let s =
    Session.create ~memo ~name:"probe"
      {
        Session.circuit = Session.Text { name; text = w.text };
        lib_file = None;
        sigma_scale = 1.0;
        base_size_idx = 2;
        tmax_factor;
      }
  in
  let vth0, size0 = w.log_start in
  Array.iter
    (fun (g : Circuit.gate) ->
      if g.kind <> Cell_kind.Pi then begin
        Session.apply_edit s (Session.Reassign_vth (g.name, vth0.(g.id)));
        Session.apply_edit s (Session.Resize (g.name, size0.(g.id)))
      end)
    w.local.Design.circuit.Circuit.gates;
  let a = Session.analyze s in
  Session.save s "start";
  let ops = w.first_stream in
  let exec = function
    | Edit e ->
      span "serve.session_edit" (fun () -> Session.apply_edit s e);
      ignore (span "serve.session_analyze" (fun () -> Session.analyze s))
    | Save n -> Session.save s n
    | Back n ->
      ignore (span "serve.session_rollback" (fun () -> Session.rollback s n));
      ignore (span "serve.session_analyze" (fun () -> Session.analyze s))
  in
  let replay () =
    List.map
      (fun (op, _) ->
        let t0 = now () in
        exec op;
        now () -. t0)
      ops
  in
  let plain = ref [] and t_plain = ref 0.0 and t_traced = ref 0.0 in
  for block = 1 to 4 do
    let on = block mod 2 = 0 in
    ignore (Session.rollback s "start");
    ignore (Session.analyze s);
    Trace.set_sink (if on then Trace.Memory else Trace.Disabled);
    let t0 = now () in
    let lats = replay () in
    let dt = now () -. t0 in
    if on then t_traced := !t_traced +. dt
    else begin
      plain := lats :: !plain;
      t_plain := !t_plain +. dt
    end
  done;
  Trace.set_sink Trace.Disabled;
  let fastest = List.fold_left (List.map2 Float.min) (List.hd !plain) (List.tl !plain) in
  let timed =
    List.filter_map
      (fun ((op, wire), inproc) -> match op with Save _ -> None | _ -> Some (wire, inproc))
      (List.combine ops fastest)
  in
  let resp =
    Json.to_string
      (Protocol.ok
         (Protocol.float_field "yield" a.Session.yield
         @ Protocol.float_field "delay_mean" a.delay_mean
         @ Protocol.float_field "delay_sigma" a.delay_sigma
         @ Protocol.float_field "leak_mean" a.leak_mean
         @ [ ("leak_std", Json.Num a.leak_std); ("leak_p99", Json.Num a.leak_p99) ]))
  in
  let codec =
    median_time 9 (fun () ->
        for _ = 1 to 1000 do
          ignore (Json.to_string (Json.of_string resp))
        done)
  in
  ( 1e6 *. median (List.map snd timed),
    1e6 *. median (List.map (fun (wire, inproc) -> wire -. inproc) timed),
    100.0 *. (!t_traced -. !t_plain) /. !t_plain,
    1e6 *. codec /. 1000.0 )

(* Cost of one recorded benchmark span around an empty call. *)
let span_cost_ns () =
  let n = 200_000 in
  Trace.set_sink Trace.Memory;
  let t0 = now () in
  for _ = 1 to n do
    span "probe.empty" ignore
  done;
  let dt = now () -. t0 in
  Trace.set_sink Trace.Disabled;
  Trace.clear ();
  1e9 *. dt /. float_of_int n

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time per layer from the recorded trace: each span's duration
   minus the time its direct children cover.  Everything runs on one
   domain, so the start-sorted events (parents first on ties) nest as a
   stack. *)
let self_times trace =
  let evs =
    List.filter_map
      (fun e ->
        match (Json.str "ph" e, Json.str "name" e, Json.num "ts" e, Json.num "dur" e) with
        | Some "X", Some name, Some ts, Some dur -> Some (name, ts, dur)
        | _ -> None)
      (Option.value ~default:[] (Json.list "traceEvents" trace))
  in
  let by_layer = Hashtbl.create 16 in
  let add l v = Hashtbl.replace by_layer l (v +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)) in
  (* stack entries: (name, end, child time) *)
  let rec pop_until ts = function
    | (name, stop, dur, covered) :: rest when stop <= ts ->
      add (layer_of name) (dur -. covered);
      pop_until ts rest
    | stack -> stack
  in
  let stack =
    List.fold_left
      (fun stack (name, ts, dur) ->
        match pop_until ts stack with
        | (pn, ps, pd, pc) :: rest -> (name, ts +. dur, dur, 0.0) :: (pn, ps, pd, pc +. dur) :: rest
        | [] -> [ (name, ts +. dur, dur, 0.0) ])
      [] evs
  in
  ignore (pop_until infinity stack);
  Hashtbl.fold (fun l us acc -> (l, us /. 1e6) :: acc) by_layer []

(* ---------- output ---------- *)

let emit ~correct ~metrics =
  let attempted = List.fold_left (fun a (_, t) -> a + t.attempted) 0 tallies in
  let failed = List.fold_left (fun a (_, t) -> a + t.failed) 0 tallies in
  List.iter
    (fun (k, t) -> Printf.printf "ops %-8s attempted %6d  failed %4d\n" k t.attempted t.failed)
    tallies;
  Printf.printf "certifications inconclusive (CI straddles eta): %d\n" !inconclusive;
  List.iter (fun (k, v, u) -> Printf.printf "%-28s %14.6f %s\n" k v u) metrics;
  let m =
    String.concat ", "
      (List.map (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v u) metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed m

(* Per round: set-up is each circuit's median build (or load), summed;
   optimize and certify are summed over the designs; the figures are the
   medians over the rounds.  A what-if's latency is its faster execution;
   p50, p99 and the rate are over every what-if of the run. *)
let end_to_end rounds ~rss_kb =
  let cal = Calib.calibrate in
  let setup r = sum (List.map (fun reps -> median (List.map cal reps)) r.setups) in
  let opt r = sum (List.map cal r.opts) and cert r = sum (List.map cal r.certs) in
  let med f = median (List.map f rounds) in
  let best = Hashtbl.create 4096 in
  List.iteri
    (fun i r ->
      List.iter
        (fun (k, iv) ->
          let t = cal iv in
          match Hashtbl.find_opt best (i, k) with
          | Some b when b <= t -> ()
          | _ -> Hashtbl.replace best (i, k) t)
        r.wi.reqs)
    rounds;
  let lat = Hashtbl.fold (fun _ t acc -> t :: acc) best [] in
  [
    ("setup_s", med setup, "s");
    ("optimize_s", med opt, "s");
    ("certify_s", med cert, "s");
    ("time_to_design_s", med (fun r -> setup r +. opt r +. cert r), "s");
    ("leak_final_ua", (List.hd rounds).leak_final /. 1000.0, "uA");
    ("whatif_p50_ms", 1e3 *. quantile lat 0.5, "ms");
    ("whatif_p99_ms", 1e3 *. quantile lat 0.99, "ms");
    ("whatif_per_s", float_of_int (List.length lat) /. sum lat, "1/s");
    ("peak_rss_mb", float_of_int rss_kb /. 1024.0, "MB");
  ]

(* The circuits whose set-up the workload times. *)
let setup_circs ctx =
  match ctx.workload with
  | "greedy-suite" -> greedy_circs
  | "batch-pipeline" -> [ pipe3k ]
  | _ ->
    let text = Bench_format.to_string (dag4k.make ()) in
    [ { cname = dag4k.cname; make = (fun () -> Bench_format.parse_string ~name:dag4k.cname text) } ]

let per_layer ctx (r : round) =
  let trace = Trace.export () in
  let spans = Trace.event_count () in
  Trace.set_sink Trace.Disabled;
  let self = self_times trace in
  let w = r.wi in
  let setup = setup_probes (setup_circs ctx) in
  let moves = move_probes ~seed:ctx.seed w.su w.local in
  let session_us, wire_us, overhead_pct, codec_us = session_probes w in
  let c = r.counts in
  let gc = Gc.quick_stat () in
  setup @ moves
  @ [
      ("ssta.propagations", float_of_int c.propagations, "count");
      ("ssta.syncs", float_of_int c.syncs, "count");
      ("opt.trials", float_of_int c.trials, "count");
      ("opt.moves", float_of_int c.moves, "count");
      ("opt.rollbacks", float_of_int c.rollbacks, "count");
      ("opt.moves_per_trial", float_of_int c.moves /. float_of_int c.trials, "ratio");
      ("opt.minor_mwords", c.minor_words /. 1e6, "Mword");
      ("opt.major_collections", float_of_int c.major_collections, "count");
      ("yield.dies", float_of_int r.dies, "count");
      ("yield.ess", r.ess, "count");
      ("serve.load_ms", 1e3 *. r.load_s, "ms");
      ("serve.session_whatif_us", session_us, "us");
      ("serve.wire_overhead_us", wire_us, "us");
      ("serve.codec_us", codec_us, "us");
      ("serve.rollback_ms", 1e3 *. median w.rb_lats, "ms");
      ("gc.heap_top_mb", float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0, "MB");
      ("host.kernel_ms", 1e3 *. median (List.map snd !Calib.samples), "ms");
      ("trace.overhead_pct", overhead_pct, "%");
      ("trace.span_ns", span_cost_ns (), "ns");
      ("trace.spans", float_of_int spans, "count");
    ]
  @ List.map
      (fun l -> ("self." ^ l ^ "_s", Option.value ~default:0.0 (List.assoc_opt l self), "s"))
      [ "netlist"; "setup"; "ssta"; "leakage"; "opt"; "yield"; "mc"; "serve"; "check" ]

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref nan and trace = ref 0 in
  let cli = ref "" and dir = ref ".perfbench-run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--cli", Arg.Set_string cli, "PATH to statleak_cli.exe");
      ("--dir", Arg.Set_string dir, "DIR for the socket and the trace");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "designer --workload NAME --seed N --seconds S --trace 0|1 --cli PATH";
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of %s)\n" !workload (String.concat ", " workloads);
    exit 2
  end;
  if Float.is_nan !seconds then begin
    prerr_endline "--seconds is required";
    exit 2
  end;
  if not (Sys.file_exists !cli) then begin
    Printf.eprintf "statleak binary %S not found\n" !cli;
    exit 2
  end;
  if not (Sys.file_exists !dir) then Unix.mkdir !dir 0o755;
  let traced = !trace = 1 in
  let daemon = start_daemon ~cli:!cli ~dir:!dir in
  let ctx = { workload = !workload; seed = !seed; daemon; traced; firsts = Hashtbl.create 8 } in
  match
    if traced then begin
      Trace.set_sink Trace.Memory;
      Trace.clear ();
      let r = run_round ctx 0 in
      ignore (Trace.write (Filename.concat !dir (Printf.sprintf "trace-%s-%d.json" !workload !seed)));
      (per_layer ctx r, [ r ])
    end
    else begin
      (* whole rounds, at least [min_rounds]; another one only if it
         should end within --seconds *)
      let t0 = now () in
      (* samples on either side of the rounds, for the first and last
         intervals' calibration *)
      let bracket () = for _ = 1 to Calib.near do Calib.sample () done in
      bracket ();
      let rec go k acc =
        let t_round = now () in
        let acc = run_round ctx k :: acc in
        let elapsed = now () -. t0 in
        if k + 1 < min_rounds || elapsed +. (now () -. t_round) <= !seconds then go (k + 1) acc
        else List.rev acc
      in
      let rounds = go 0 [] in
      bracket ();
      ([], rounds)
    end
  with
  | exception e ->
    kill_daemon daemon;
    Printf.eprintf "benchmark aborted: %s\n%!" (Printexc.to_string e);
    exit 1
  | m, rounds ->
    let daemon_kb = stop_daemon daemon in
    let metrics =
      if traced then m else end_to_end rounds ~rss_kb:(read_hwm_kb "self" + daemon_kb)
    in
    Printf.printf "workload %s seed %d rounds %d%s\n" !workload !seed (List.length rounds)
      (if traced then " (traced)" else "");
    emit ~correct:(!problems = []) ~metrics
