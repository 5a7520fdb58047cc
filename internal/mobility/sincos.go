package mobility

import "math"

// sincos sets sin[i], cos[i] to math.Sincos(xs[i]) bit for bit for every
// i < len(xs), as the standard library computes it without fused
// multiply-adds (amd64). It is the same algorithm: the same three-part π/4
// reduction, the same _sin/_cos polynomials in the same operation order.
// Only the octant handling differs: where math.Sincos branches on the
// octant, sincos selects the swap with a mask and applies the signs as
// sign-bit XORs. Headings spread over every octant, so those branches
// mispredict in the walk. It takes a slice so the walk computes a chunk's
// sines and cosines without a call per walker.
//
// Every product is wrapped in an explicit float64 conversion, which the Go
// spec makes round, so no architecture fuses it into a multiply-add.
//
// The port covers 0 < |x| < 2^29, where the three-part reduction is exact.
// ±0, ±Inf, NaN and |x| ≥ 2^29 go to math.Sincos.
func sincos(sin, cos, xs []float64) {
	const (
		pi4A    = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		pi4B    = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		pi4C    = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
		reduce  = 1 << 29                    // math's reduceThreshold
		signBit = 1 << 63

		sin0 = 1.58962301576546568060e-10 // 0x3de5d8fd1fd19ccd
		sin1 = -2.50507477628578072866e-8 // 0xbe5ae5e5a9291f5d
		sin2 = 2.75573136213857245213e-6  // 0x3ec71de3567d48a1
		sin3 = -1.98412698295895385996e-4 // 0xbf2a01a019bfdf03
		sin4 = 8.33333333332211858878e-3  // 0x3f8111111110f7d0
		sin5 = -1.66666666666666307295e-1 // 0xbfc5555555555548

		cos0 = -1.13585365213876817300e-11 // 0xbda8fa49a0861a9b
		cos1 = 2.08757008419747316778e-9   // 0x3e21ee9d7b4e3f05
		cos2 = -2.75573141792967388112e-7  // 0xbe927e4f7eac4bc6
		cos3 = 2.48015872888517045348e-5   // 0x3efa01a019c844f5
		cos4 = -1.38888888888730564116e-3  // 0xbf56c16c16c14f91
		cos5 = 4.16666666666665929218e-2   // 0x3fa555555555554b
	)
	sin, cos = sin[:len(xs)], cos[:len(xs)]
	for i, x := range xs {
		xb := math.Float64bits(x)
		ax := math.Float64frombits(xb &^ signBit)
		if !(ax > 0 && ax < reduce) {
			sin[i], cos[i] = math.Sincos(x)
			continue
		}
		// Signed conversions: |x|/(Pi/4) < 2^30 fits either way, and amd64
		// converts unsigned integers to and from floats with a branch.
		j := int64(float64(ax * (4 / math.Pi))) // integer part of |x|/(Pi/4)
		j += j & 1                              // map zeros to origin
		y := float64(j)
		z := ((ax - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)

		zz := float64(z * z)
		cp := float64(cos0*zz) + cos1
		cp = float64(cp*zz) + cos2
		cp = float64(cp*zz) + cos3
		cp = float64(cp*zz) + cos4
		cp = float64(cp*zz) + cos5
		c := (1.0 - float64(0.5*zz)) + float64(float64(zz*zz)*cp)
		sp := float64(sin0*zz) + sin1
		sp = float64(sp*zz) + sin2
		sp = float64(sp*zz) + sin3
		sp = float64(sp*zz) + sin4
		sp = float64(sp*zz) + sin5
		s := z + float64(float64(z*zz)*sp)

		// j is even now, and q = j/2 mod 4 is the quadrant of |x|. Quadrants 1
		// and 3 swap sine and cosine, 2 and 3 negate the sine, 1 and 2 the
		// cosine; a negative x negates the sine once more.
		q := uint64(j>>1) & 3
		swap := -(q & 1) // all ones in quadrants 1 and 3
		sb, cb := math.Float64bits(s), math.Float64bits(c)
		sinBits := (sb&^swap | cb&swap) ^ (q>>1)<<63 ^ xb&signBit
		cosBits := (cb&^swap | sb&swap) ^ (q>>1^q)&1<<63
		sin[i], cos[i] = math.Float64frombits(sinBits), math.Float64frombits(cosBits)
	}
}
