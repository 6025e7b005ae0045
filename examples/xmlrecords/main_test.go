package main

// Example pins the program's stdout: every figure it prints is computed
// deterministically, so a change to any line is a change in behaviour.
func Example() {
	main()
	// Output:
	// provider maria: violated=true Violation=430 threshold=40 defaults=true
	//
	// leaf conflicts:
	//   /patient/contact/email   purpose=ads      conf=207    IMPLICIT ZERO (never consented)
	//   /patient/contact/phone   purpose=ads      conf=207    IMPLICIT ZERO (never consented)
	//   /patient/vitals/weight   purpose=research conf=8      explicit preference
	//   /patient/vitals/condition purpose=research conf=8      explicit preference
	//
	// widening research to the whole subtree: Violation 430 → 838, defaults=true
	// conflicted leaves 4 → 8 (inheritance reaches name, contact and billing)
}
