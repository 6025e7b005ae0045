package main

// Example pins the program's stdout: every figure it prints is computed
// deterministically, so a change to any line is a change in behaviour.
func Example() {
	main()
	// Output:
	// Stackelberg equilibria over the policy ladder
	// =============================================
	// κ = 0:
	// policy        T  incentive   participants       payoff
	// p0            0          0           1514        12112
	// p1            3          0           1330        14630
	// p2            6          0           1282        17948
	// p3            9          0           1217        20689  <- equilibrium
	// p4           12          0           1026        20520
	//
	// κ = 4:
	// policy        T  incentive   participants       payoff
	// p0            0          0           1514        12112
	// p0            0          1           1546        10822
	// p0            0          2           1578         9468
	// p0            0          3           1607         8035
	// p1            3          0           1330        14630
	// p1            3          1           1354        13540
	// p1            3          2           1374        12366
	// p1            3          3           1400        11200
	// p2            6          0           1282        17948
	// p2            6          1           1306        16978
	// p2            6          2           1327        15924
	// p2            6          3           1358        14938
	// p3            9          0           1217        20689  <- equilibrium
	// p3            9          1           1255        20080
	// p3            9          2           1282        19230
	// p3            9          3           1301        18214
	// p4           12          0           1026        20520
	// p4           12          1           1066        20254
	// p4           12          2           1120        20160
	// p4           12          3           1164        19788
	//
	// widest policy p4 keeps 1026 of 2000 members;
	// Eq. 31: it must earn T > 7.59 per member to beat the (hypothetical) no-default baseline;
	// it offers T = 12 → worth it
}
