package main

// Example pins the program's stdout: every figure it prints is computed
// deterministically, so a change to any line is a change in behaviour.
func Example() {
	main()
	// Output:
	//
	// clinician reads for care (exact):
	//   [patient condition weight]
	//   [maria asthma 61.5]
	//   [omar diabetes 92]
	//
	// research partner reads (degraded to 'partial'; omar withheld):
	//   [patient condition weight]
	//   [maria respiratory [60-65)]
	//
	// research asks for balances → query: access denied on "balance": no policy tuple for purpose "research"
	//
	// certification: P(W)=0.50 P(Default)=0.50 α=0.25-PPDB=false wouldDefault=[omar]
	//
	// after 400 days: sweep expired 6 cells, deleted 2 rows; records left: 0
	//
	// audit trail:
	//   [2011-01-01] dr-chen purpose=care class=2 → allowed
	//   [2011-01-01] uni-lab purpose=research class=3 → allowed
	//   [2011-01-01] uni-lab purpose=research class=3 → DENIED: query: access denied on "balance": no policy tuple for purpose "research"
}
