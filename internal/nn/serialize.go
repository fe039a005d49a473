package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"bomw/internal/tensor"
)

// Weight serialisation implements the storage side of the Weights Building
// Module (Fig. 2): after the (offline) training phase the resulting weights
// are kept by the Dispatcher and staged into each device's buffers. The
// format is a little-endian stream: magic, version, layer count, then for
// each weight-bearing layer its tensors (rank, dims, float32 payload).

const (
	weightsMagic   = uint32(0x424F4D57) // "BOMW"
	weightsVersion = uint32(1)
)

// WriteWeights serialises all weight tensors of the network to w.
func (n *Network) WriteWeights(w io.Writer) error {
	bw := bufio.NewWriter(w)
	tensors := n.weightTensors()
	hdr := []uint32{weightsMagic, weightsVersion, uint32(len(tensors))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("nn: writing weights header: %w", err)
		}
	}
	for _, t := range tensors {
		if err := writeTensor(bw, t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeTensor(w io.Writer, t *tensor.Tensor) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(t.Rank())); err != nil {
		return fmt.Errorf("nn: writing tensor rank: %w", err)
	}
	for _, d := range t.Shape() {
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return fmt.Errorf("nn: writing tensor shape: %w", err)
		}
	}
	buf := make([]byte, 4*len(t.Data()))
	for i, v := range t.Data() {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("nn: writing tensor payload: %w", err)
	}
	return nil
}

// weightTensors lists the tensors of the weight stream in stream order.
func (n *Network) weightTensors() []*tensor.Tensor {
	var tensors []*tensor.Tensor
	for _, l := range n.layers {
		switch t := l.(type) {
		case *Dense:
			tensors = append(tensors, t.W, t.B)
		case *Conv:
			tensors = append(tensors, t.Filters, t.Bias)
		}
	}
	return tensors
}

// ReadWeights loads weights previously produced by WriteWeights into the
// network. The architecture must match exactly and every value must be
// finite. The stream comes from outside the program, so it is decoded
// and checked in full before the network is touched: on any error the
// network keeps the weights it had.
func (n *Network) ReadWeights(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic, version, count uint32
	for _, p := range []*uint32{&magic, &version, &count} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return fmt.Errorf("nn: reading weights header: %w", err)
		}
	}
	if magic != weightsMagic {
		return fmt.Errorf("nn: bad weights magic %#x", magic)
	}
	if version != weightsVersion {
		return fmt.Errorf("nn: unsupported weights version %d", version)
	}
	targets := n.weightTensors()
	if int(count) != len(targets) {
		return fmt.Errorf("nn: weights stream has %d tensors, network %q needs %d", count, n.name, len(targets))
	}
	staged := make([][]float32, len(targets))
	for i, t := range targets {
		data, err := readTensorLike(br, t)
		if err != nil {
			return fmt.Errorf("nn: tensor %d: %w", i, err)
		}
		staged[i] = data
	}
	for i, t := range targets {
		copy(t.Data(), staged[i])
	}
	return nil
}

// readTensorLike decodes one tensor of the stream, which must have t's
// shape and a finite payload, and returns the payload.
func readTensorLike(r io.Reader, t *tensor.Tensor) ([]float32, error) {
	var rank uint32
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return nil, fmt.Errorf("reading rank: %w", err)
	}
	if int(rank) != t.Rank() {
		return nil, fmt.Errorf("rank %d, want %d", rank, t.Rank())
	}
	for i := 0; i < int(rank); i++ {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return nil, fmt.Errorf("reading shape: %w", err)
		}
		if int(d) != t.Dim(i) {
			return nil, fmt.Errorf("dim %d is %d, want %d", i, d, t.Dim(i))
		}
	}
	buf := make([]byte, 4*t.Len())
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("reading payload: %w", err)
	}
	data := make([]float32, t.Len())
	for i := range data {
		v := math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		// Linear multiplies every weight by every input: one Inf or NaN
		// would turn a whole output row into NaN.
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return nil, fmt.Errorf("value %d is %v, want a finite number", i, v)
		}
		data[i] = v
	}
	return data, nil
}
