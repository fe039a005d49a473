package mlsched

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary serialisation for trained tree-family models, so a production
// scheduler can persist its ≈26-second training result (§V-C) and restart
// instantly. The format is little-endian: magic, version, config, class
// count, then pre-order node streams.

const (
	treeMagic     = uint32(0x424D5444) // "BMTD"
	forestMagic   = uint32(0x424D5246) // "BMRF"
	serialVersion = uint32(2)
)

type binWriter struct {
	w   *bufio.Writer
	err error
}

func (b *binWriter) u32(v uint32) {
	if b.err == nil {
		b.err = binary.Write(b.w, binary.LittleEndian, v)
	}
}
func (b *binWriter) i64(v int64) {
	if b.err == nil {
		b.err = binary.Write(b.w, binary.LittleEndian, v)
	}
}
func (b *binWriter) f64(v float64) {
	b.u32(uint32(math.Float64bits(v) >> 32))
	b.u32(uint32(math.Float64bits(v)))
}

type binReader struct {
	r   *bufio.Reader
	err error
}

func (b *binReader) u32() uint32 {
	var v uint32
	if b.err == nil {
		b.err = binary.Read(b.r, binary.LittleEndian, &v)
	}
	return v
}
func (b *binReader) i64() int64 {
	var v int64
	if b.err == nil {
		b.err = binary.Read(b.r, binary.LittleEndian, &v)
	}
	return v
}
func (b *binReader) f64() float64 {
	hi := b.u32()
	lo := b.u32()
	return math.Float64frombits(uint64(hi)<<32 | uint64(lo))
}

// Serialize writes a trained tree in the package binary format.
func (t *Tree) Serialize(w io.Writer) error {
	if t.root == nil {
		return fmt.Errorf("mlsched: cannot serialise an untrained tree")
	}
	bw := &binWriter{w: bufio.NewWriter(w)}
	bw.u32(treeMagic)
	bw.u32(serialVersion)
	bw.u32(uint32(t.cfg.MaxDepth))
	bw.u32(uint32(t.cfg.Criterion))
	bw.u32(uint32(t.cfg.MinSamplesLeaf))
	bw.u32(uint32(t.cfg.MaxFeatures))
	bw.i64(t.cfg.Seed)
	bw.u32(uint32(t.classes))
	bw.u32(uint32(t.depth))
	bw.u32(uint32(t.leaves))
	bw.u32(uint32(len(t.importance)))
	for _, v := range t.importance {
		bw.f64(v)
	}
	writeNode(bw, t.root)
	if bw.err != nil {
		return fmt.Errorf("mlsched: writing tree: %w", bw.err)
	}
	return bw.w.Flush()
}

func writeNode(bw *binWriter, n *treeNode) {
	if n.leaf {
		bw.u32(1)
		bw.u32(uint32(n.class))
		return
	}
	bw.u32(0)
	bw.u32(uint32(n.feature))
	bw.f64(n.threshold)
	writeNode(bw, n.left)
	writeNode(bw, n.right)
}

// maxNodeDepth caps recursion on corrupted streams.
const maxNodeDepth = 64

// readNode parses a node, validating class labels against classes and
// split features against nFeatures so a corrupted stream can never yield
// a tree whose Predict indexes out of range.
func readNode(br *binReader, depth, classes, nFeatures int) *treeNode {
	if br.err != nil || depth > maxNodeDepth {
		if br.err == nil {
			br.err = fmt.Errorf("node depth exceeds %d", maxNodeDepth)
		}
		return nil
	}
	switch br.u32() {
	case 1:
		class := int(br.u32())
		if class < 0 || class >= classes {
			if br.err == nil {
				br.err = fmt.Errorf("leaf class %d out of range [0,%d)", class, classes)
			}
			return nil
		}
		return &treeNode{leaf: true, class: class}
	case 0:
		feature := int(br.u32())
		if feature < 0 || feature >= nFeatures {
			if br.err == nil {
				br.err = fmt.Errorf("split feature %d out of range [0,%d)", feature, nFeatures)
			}
			return nil
		}
		n := &treeNode{feature: feature, threshold: br.f64()}
		n.left = readNode(br, depth+1, classes, nFeatures)
		n.right = readNode(br, depth+1, classes, nFeatures)
		if n.left == nil || n.right == nil {
			return nil
		}
		return n
	default:
		if br.err == nil {
			br.err = fmt.Errorf("invalid node tag")
		}
		return nil
	}
}

// Serialize writes a trained forest in the package binary format.
func (f *Forest) Serialize(w io.Writer) error {
	if len(f.trees) == 0 {
		return fmt.Errorf("mlsched: cannot serialise an untrained forest")
	}
	bw := &binWriter{w: bufio.NewWriter(w)}
	bw.u32(forestMagic)
	bw.u32(serialVersion)
	bw.u32(uint32(f.cfg.NEstimators))
	bw.u32(uint32(f.cfg.MaxDepth))
	bw.u32(uint32(f.cfg.Criterion))
	bw.u32(uint32(f.cfg.MinSamplesLeaf))
	bw.i64(f.cfg.Seed)
	all := uint32(0)
	if f.AllFeatures {
		all = 1
	}
	bw.u32(all)
	bw.u32(uint32(f.classes))
	bw.u32(uint32(len(f.trees)))
	if bw.err != nil {
		return fmt.Errorf("mlsched: writing forest header: %w", bw.err)
	}
	if err := bw.w.Flush(); err != nil {
		return err
	}
	for _, t := range f.trees {
		if err := t.Serialize(w); err != nil {
			return err
		}
	}
	return nil
}

// ReadForest deserialises a forest written by Serialize.
func ReadForest(r io.Reader) (*Forest, error) {
	br := &binReader{r: bufio.NewReader(r)}
	if m := br.u32(); br.err == nil && m != forestMagic {
		return nil, fmt.Errorf("mlsched: bad forest magic %#x", m)
	}
	if v := br.u32(); br.err == nil && v != serialVersion {
		return nil, fmt.Errorf("mlsched: unsupported forest version %d", v)
	}
	f := &Forest{}
	f.cfg.NEstimators = int(br.u32())
	f.cfg.MaxDepth = int(br.u32())
	f.cfg.Criterion = Criterion(br.u32())
	f.cfg.MinSamplesLeaf = int(br.u32())
	f.cfg.Seed = br.i64()
	f.AllFeatures = br.u32() == 1
	f.classes = int(br.u32())
	count := int(br.u32())
	if br.err != nil {
		return nil, fmt.Errorf("mlsched: reading forest header: %w", br.err)
	}
	if count <= 0 || count > 100000 {
		return nil, fmt.Errorf("mlsched: implausible tree count %d", count)
	}
	// Hand the buffered reader to the tree parser so no bytes are lost.
	for i := 0; i < count; i++ {
		t, err := readTreeFrom(br.r)
		if err != nil {
			return nil, fmt.Errorf("mlsched: forest tree %d: %w", i, err)
		}
		f.trees = append(f.trees, t)
	}
	return f, nil
}

// readTreeFrom parses a tree from an existing buffered reader.
func readTreeFrom(r *bufio.Reader) (*Tree, error) {
	br := &binReader{r: r}
	if m := br.u32(); br.err == nil && m != treeMagic {
		return nil, fmt.Errorf("bad tree magic %#x", m)
	}
	if v := br.u32(); br.err == nil && v != serialVersion {
		return nil, fmt.Errorf("unsupported tree version %d", v)
	}
	t := &Tree{}
	t.cfg.MaxDepth = int(br.u32())
	t.cfg.Criterion = Criterion(br.u32())
	t.cfg.MinSamplesLeaf = int(br.u32())
	t.cfg.MaxFeatures = int(br.u32())
	t.cfg.Seed = br.i64()
	t.classes = int(br.u32())
	t.depth = int(br.u32())
	t.leaves = int(br.u32())
	nFeatures := int(br.u32())
	if br.err == nil && (t.classes <= 0 || t.classes > 1<<20 || nFeatures <= 0 || nFeatures > 1<<20) {
		return nil, fmt.Errorf("implausible classes (%d) or features (%d)", t.classes, nFeatures)
	}
	if br.err != nil {
		return nil, br.err
	}
	t.importance = make([]float64, nFeatures)
	for i := range t.importance {
		t.importance[i] = br.f64()
	}
	t.root = readNode(br, 0, t.classes, nFeatures)
	if br.err != nil {
		return nil, br.err
	}
	if t.root == nil {
		return nil, fmt.Errorf("tree stream malformed")
	}
	return t, nil
}
