(* Core-speed calibration.

   On a shared virtual machine the speed of the benchmark's CPU wanders:
   on the 2-vCPU KVM guest this benchmark was tuned on, a fixed CPU-bound
   kernel took either about 1x or about 1.4x its best time, switching
   every few tenths of a second to tens of seconds, with steal time
   near 0. Every timing moves with it, the server's own CPU time
   included, so the run-to-run spread of a raw timing mostly measured
   how much of each run fell in the slow state.

   [measure] times a fixed kernel that uses the standard library only
   (sort [n] floats in place, then [n/4] hash-table inserts and [n/2]
   finds), the best of three, on the CPU the load generator and the
   server share. [factor ~before ~after] turns the kernel times taken
   just before and just after an interval into the factor that scales
   that interval's timings to the reference speed, at which the kernel
   takes [ref_us]. No program code runs in the kernel, so no change to
   the program can move the factor. *)

let n = 4096

(* The kernel's best time on the reference host (Intel Xeon, 2-vCPU KVM
   guest, fast state), in microseconds. It only sets the scale of the
   calibrated figures: with it they read close to the raw figures of an
   unloaded host. *)
let ref_us = 1200.

let source = Array.init n (fun i -> float_of_int ((i * 7919) land 32767))
let scratch = Array.make n 0.

let once () =
  let t0 = Wavesyn_obs.Mclock.now_ns () in
  Array.blit source 0 scratch 0 n;
  Array.sort Float.compare scratch;
  let h = Hashtbl.create (n / 4) in
  for i = 0 to (n / 4) - 1 do
    Hashtbl.replace h (int_of_float scratch.(4 * i)) i
  done;
  let hits = ref 0 in
  for i = 0 to (n / 2) - 1 do
    if Hashtbl.mem h i then incr hits
  done;
  ignore (Sys.opaque_identity !hits);
  Int64.to_float (Int64.sub (Wavesyn_obs.Mclock.now_ns ()) t0) /. 1e3

let measure () = Float.min (once ()) (Float.min (once ()) (once ()))
let factor ~before ~after = 2. *. ref_us /. (before +. after)
