// Package hotallocx seeds the cross-package hotalloc fixture: the hot
// root lives here, one allocation it reaches lives in the hotallocdep
// stub (a package named tensor).
package hotallocx

import tensor "hotallocdep"

// Step is the hot root; its helper chain crosses into the dep stub.
//
// fedlint:hotpath
func Step() int {
	p := tensor.NewPanel(8) // want `tensor\.NewPanel in hot-path function Step allocates fresh tensor storage`
	tensor.Fill(p)
	return p.Len()
}
