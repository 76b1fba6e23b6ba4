package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"fedsched/internal/tensor"
)

// Weight checkpoint format: a small binary header followed by parameter
// data in layer order. The format is versioned and validates the
// architecture name and parameter geometry on load, so a checkpoint cannot
// silently load into the wrong model.
//
// Version 2 adds a dtype tag after the version word and stores parameter
// data at the network's native element width (float32 checkpoints are half
// the size). Version 1 checkpoints carry implicit float64 data and still
// load. Loading converts across precisions: a float64 checkpoint loads
// into a float32 network by rounding (and vice versa by widening), with
// non-finite values — stored or produced by the narrowing — rejected.
const (
	checkpointMagic   = 0x46534348 // "FSCH"
	checkpointVersion = 2

	checkpointF64 = 1
	checkpointF32 = 2
)

func checkpointDtype[T tensor.Float]() uint32 {
	if tensor.Eps[T]() > 1e-10 {
		return checkpointF32
	}
	return checkpointF64
}

// AppendWeights appends the network's parameters to b in the checkpoint
// format, at the network's native element width, and returns the extended
// slice. b grows at most once, to the exact encoded size.
func (n *NetworkOf[T]) AppendWeights(b []byte) []byte {
	le := binary.LittleEndian
	dtype := checkpointDtype[T]()
	width := 8
	if dtype == checkpointF32 {
		width = 4
	}
	params := n.Params()
	size := 5*4 + len(n.Arch)
	for _, p := range params {
		size += 4 + p.W.Len()*width
	}
	b = slices.Grow(b, size)
	b = le.AppendUint32(b, checkpointMagic)
	b = le.AppendUint32(b, checkpointVersion)
	b = le.AppendUint32(b, dtype)
	b = le.AppendUint32(b, uint32(len(n.Arch)))
	b = append(b, n.Arch...)
	b = le.AppendUint32(b, uint32(len(params)))
	for _, p := range params {
		b = le.AppendUint32(b, uint32(p.W.Len()))
		switch d := any(p.W.Data()).(type) {
		case []float64:
			for _, v := range d {
				b = le.AppendUint64(b, math.Float64bits(v))
			}
		case []float32:
			for _, v := range d {
				b = le.AppendUint32(b, math.Float32bits(v))
			}
		}
	}
	return b
}

// SaveWeights writes the network's parameters to w at the network's native
// element width.
func (n *NetworkOf[T]) SaveWeights(w io.Writer) error {
	if _, err := w.Write(n.AppendWeights(nil)); err != nil {
		return fmt.Errorf("nn: save weights: %w", err)
	}
	return nil
}

// LoadWeights restores parameters saved by SaveWeights. The checkpoint
// must match this network's architecture name and parameter geometry; its
// element type may differ from the network's (values are converted).
func (n *NetworkOf[T]) LoadWeights(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("nn: load header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: not a fedsched checkpoint (magic %#x)", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return err
	}
	dtype := uint32(checkpointF64) // version 1 stored implicit float64
	switch version {
	case 1:
	case 2:
		if err := binary.Read(br, binary.LittleEndian, &dtype); err != nil {
			return err
		}
		if dtype != checkpointF64 && dtype != checkpointF32 {
			return fmt.Errorf("nn: unknown checkpoint dtype %d", dtype)
		}
	default:
		return fmt.Errorf("nn: unsupported checkpoint version %d", version)
	}
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return err
	}
	if nameLen > 1<<16 {
		return fmt.Errorf("nn: implausible architecture name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return err
	}
	if string(name) != n.Arch {
		return fmt.Errorf("nn: checkpoint is for %q, network is %q", name, n.Arch)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	params := n.Params()
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d parameters, network has %d", count, len(params))
	}
	for _, p := range params {
		var length uint32
		if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
			return err
		}
		if int(length) != p.W.Len() {
			return fmt.Errorf("nn: parameter %s has %d values, checkpoint has %d", p.Name, p.W.Len(), length)
		}
		d := p.W.Data()
		for i := range d {
			var v float64
			if dtype == checkpointF32 {
				var f float32
				if err := binary.Read(br, binary.LittleEndian, &f); err != nil {
					return fmt.Errorf("nn: load %s: %w", p.Name, err)
				}
				v = float64(f)
			} else {
				if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
					return fmt.Errorf("nn: load %s: %w", p.Name, err)
				}
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: corrupt checkpoint: non-finite weight in %s", p.Name)
			}
			t := T(v)
			// A float64 value beyond float32 range narrows to ±Inf;
			// reject rather than poison the network.
			if math.IsInf(float64(t), 0) {
				return fmt.Errorf("nn: weight in %s overflows the network's element type", p.Name)
			}
			d[i] = t
		}
	}
	return nil
}
