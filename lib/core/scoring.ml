let score ~epochs_active ~median_pps = float_of_int epochs_active *. median_pps
