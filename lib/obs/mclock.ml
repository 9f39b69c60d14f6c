let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
