(* Host-speed calibration.

   On a shared host the same work can take twice as long from one minute
   to the next, and the slow stretches come from the memory system, not
   from the arithmetic units: a pure float loop keeps its speed while an
   allocating, pointer-chasing loop slows down together with the
   optimizer.  So the kernel below is a small statistical timing pass of
   its own (Clark max over canonical forms on a fixed random DAG, a fresh
   record and coefficient array per node), written here and sharing no
   code with the libraries under test.  A change to the program cannot
   change the kernel's speed.

   The kernel is sampled between the stages of a round and between its
   what-if cycles.  When the run is over, each timed interval is scaled by
   [reference_s] over the median of the samples around it: the time it
   would have taken at the host speed the reference figure was taken at.
   A median of a few neighbours follows the stretches in which the host
   runs slow and is not thrown by one sample caught in a short blip. *)

type form = { mean : float; co : float array; rnd : float }

let npc = 12
let nodes = 3000

let fanin =
  let st = ref 12345 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st
  in
  Array.init nodes (fun i -> if i < 50 then [||] else Array.init 3 (fun _ -> next () mod i))

let phi x = exp (-0.5 *. x *. x) /. 2.5066282746310002
let cdf x = 0.5 *. Float.erfc (-.x /. 1.4142135623730951)
let var a = Array.fold_left (fun s c -> s +. (c *. c)) (a.rnd *. a.rnd) a.co

let max2 a b =
  let cov = ref 0.0 in
  Array.iteri (fun k c -> cov := !cov +. (c *. b.co.(k))) a.co;
  let th = sqrt (Float.max 1e-12 (var a +. var b -. (2.0 *. !cov))) in
  let al = (a.mean -. b.mean) /. th in
  let t = cdf al in
  {
    mean = (t *. a.mean) +. ((1.0 -. t) *. b.mean) +. (th *. phi al);
    co = Array.init npc (fun k -> (t *. a.co.(k)) +. ((1.0 -. t) *. b.co.(k)));
    rnd = (t *. a.rnd) +. ((1.0 -. t) *. b.rnd);
  }

let pass () =
  let arr = Array.make nodes { mean = 0.0; co = [||]; rnd = 0.0 } in
  for i = 0 to nodes - 1 do
    let d =
      {
        mean = 1.0 +. float_of_int (i * 7 mod 5);
        co = Array.init npc (fun k -> 0.01 *. float_of_int ((i + k) mod 7));
        rnd = 0.05;
      }
    in
    let f = fanin.(i) in
    if Array.length f = 0 then arr.(i) <- d
    else begin
      let m = Array.fold_left (fun acc j -> max2 acc arr.(j)) arr.(f.(0)) f in
      arr.(i) <-
        {
          mean = m.mean +. d.mean;
          co = Array.mapi (fun k c -> c +. d.co.(k)) m.co;
          rnd = sqrt ((m.rnd *. m.rnd) +. (d.rnd *. d.rnd));
        }
    end
  done;
  arr.(nodes - 1).mean

(* One pass took about this long on the reference host (2 vCPUs, Xeon at
   2.0 GHz, quiet stretch); it only sets the scale of calibrated times. *)
let reference_s = 0.0075

(* Every sample of the run as (start, seconds), newest first. *)
let samples : (float * float) list ref = ref []

(* Times one kernel pass, now. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (pass ()));
  samples := (t0, Unix.gettimeofday () -. t0) :: !samples

let near = 3

(* Calibrated seconds of an interval of [dt] wall seconds that began at
   [t0]: [dt] scaled by [reference_s] over the median of the samples
   taken during it and the [near] samples on either side. *)
let calibrate =
  let timeline = lazy (Array.of_list (List.rev !samples)) in
  fun (t0, dt) ->
    let tl = Lazy.force timeline in
    let n = Array.length tl in
    (* first sample that starts at or after [t] *)
    let first_from t =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fst tl.(mid) < t then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let i = max 0 (first_from t0 - near) and j = min n (first_from (t0 +. dt) + near) in
    let ks = List.sort Float.compare (List.init (j - i) (fun k -> snd tl.(i + k))) in
    let m = List.length ks in
    let med =
      if m mod 2 = 1 then List.nth ks (m / 2)
      else (List.nth ks ((m / 2) - 1) +. List.nth ks (m / 2)) /. 2.0
    in
    dt *. reference_s /. med
