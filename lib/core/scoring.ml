let score ~epochs_active ~median_pps ?(priority = 1.0) () =
  float_of_int epochs_active *. median_pps *. priority
