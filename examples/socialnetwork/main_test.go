package main

// Example pins the program's stdout: every figure it prints is computed
// deterministically, so a change to any line is a change in behaviour.
func Example() {
	main()
	// Output:
	// members: 5000 map[fundamentalist:1307 pragmatist:2821 unconcerned:872]
	//
	// policy version audit (full launch population):
	// version                P(W)   P(Default)   Violations
	// v1-launch            0.8934       0.4158       361618
	// v2-public-posts      0.9904       0.5370       551964
	// v3-ads               0.9978       0.6606       896822
	// v4-ads-contact       0.9994       0.7624      1466169
	//
	// transition pricing (Eq. 31):
	//   v1-launch → v2-public-posts: ΔP(Default)=+0.1212, adopt only if extra utility per member T > 1.047
	//   v2-public-posts → v3-ads: ΔP(Default)=+0.1236, adopt only if extra utility per member T > 1.457
	//   v3-ads → v4-ads-contact: ΔP(Default)=+0.1018, adopt only if extra utility per member T > 1.714
	//
	// live rollout (defaulted members leave):
	// step                      members      utility   break-even  justified
	// base policy v1-launch        2921        11684        0.000      false
	// v2 public posts              2315        11575        1.047      false
	// v3 ads on profile            1697        11879        2.885       true
	// v4 ads on contact            1188        10098        5.835      false
	//
	// optimal stopping point: "v3 ads on profile" (utility 11879)
}
