package main

// Example pins the program's stdout: every figure it prints is computed
// deterministically, so a change to any line is a change in behaviour.
func Example() {
	main()
	// Output:
	// alice: w_i=false  Violation_i=0  v_i=50  defaults=false
	// bob: w_i=true  Violation_i=48  v_i=20  defaults=true
	//   weight/research: granularity exceeds preference by 1 (severity 48)
	//
	// P(W) = 0.50, P(Default) = 0.50, Violations = 48
	// α = 0.25 → α-PPDB: false
	// α = 0.50 → α-PPDB: true
	// α = 0.75 → α-PPDB: true
}
