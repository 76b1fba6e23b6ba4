// Package syncmisuse seeds the synchronization mistake the pass flags —
// wg.Add inside the spawned goroutine — next to the correct shapes (Add
// before go, goroutine-local WaitGroups). By-value copies of
// lock-holding structs are go vet's copylocks pass, not fedlint's.
package syncmisuse

import "sync"

// addInside races: the spawner's Wait can run before the goroutine is
// scheduled and ever reaches Add.
func addInside() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		go func() {
			wg.Add(1) // want `wg\.Add inside the spawned goroutine races the spawner's Wait`
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// addBefore accounts on the spawning side — the correct shape.
func addBefore() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// innerPool declares its own WaitGroup inside the goroutine; a fresh,
// correctly scoped pool cannot race the outer spawner.
func innerPool() {
	var outer sync.WaitGroup
	outer.Add(1)
	go func() {
		defer outer.Done()
		var inner sync.WaitGroup
		inner.Add(1)
		go func() {
			defer inner.Done()
		}()
		inner.Wait()
	}()
	outer.Wait()
}

// allowedAddInside is an audited Add: the spawner waits on a channel the
// goroutine closes only after its Add.
func allowedAddInside() {
	var wg sync.WaitGroup
	started := make(chan struct{})
	go func() {
		wg.Add(1) //fedlint:allow syncmisuse — fixture: the spawner waits for started before Wait
		close(started)
		wg.Done()
	}()
	<-started
	wg.Wait()
}
