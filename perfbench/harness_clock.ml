(* Monotonic nanosecond clock (CLOCK_MONOTONIC via bechamel's stub). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
