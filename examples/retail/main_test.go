package main

// Example pins the program's stdout: every figure it prints is computed
// deterministically, so a change to any line is a change in behaviour.
func Example() {
	main()
	// Output:
	// internal-risk audit (the paper's model):
	//   current : P(W)=0.7983 P(Default)=0.3803
	//   proposed: P(W)=0.9557 P(Default)=0.4967 (1490 members would walk)
	//   the broker must pay more than 2.77 per member per year to break even (Eq. 31)
	//
	// external-risk view (release-time anonymization):
	//   released 1000 rows at generalization levels [4 0]
	//   k-anonymity: k=186  distinct l-diversity: l=186
	//   → the release itself re-identifies nobody, yet the policy behind it
	//     violates member preferences: the two risk models measure different things.
	//
	// if signed at T=3.00/member: members 1859 → 1510, utility 22308 → 22650, justified: true
}
