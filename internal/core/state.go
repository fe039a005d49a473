package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"bomw/internal/characterize"
	"bomw/internal/mlsched"
)

// Scheduler state persistence: the offline phase (characterisation +
// training, ≈26 s on the paper's testbed) runs once, and its result —
// the per-policy random forests — is saved so later processes restart
// instantly with LoadState.

const stateMagic = uint32(0x424D5353) // "BMSS"

// maxForestBlob bounds one serialised classifier section. Real forests
// (20 trees, depth ≤ 10) serialise to a few hundred KB; anything near
// this cap is corrupt or hostile.
const maxForestBlob = 64 << 20

// SaveState serialises the trained per-policy classifiers. Only forest
// classifiers are serialisable; schedulers built with custom classifier
// factories return an error.
func (s *Scheduler) SaveState(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, stateMagic); err != nil {
		return fmt.Errorf("core: writing state header: %w", err)
	}
	pols := characterize.Objectives()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(pols))); err != nil {
		return fmt.Errorf("core: writing state header: %w", err)
	}
	for _, pol := range pols {
		forest, ok := s.classifiers[pol].(*mlsched.Forest)
		if !ok {
			return fmt.Errorf("core: %v classifier is %T, only forests serialise", pol, s.classifiers[pol])
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(pol)); err != nil {
			return err
		}
		// Length-prefix the forest blob so sequential reads never leak
		// buffered bytes between sections.
		var buf bytes.Buffer
		if err := forest.Serialize(&buf); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(buf.Len())); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// LoadState builds a scheduler from previously saved classifiers,
// skipping characterisation and training entirely. The device set of cfg
// must match the one the state was trained on (same class order).
// cfg.TrainModels is ignored.
func LoadState(cfg Config, r io.Reader) (*Scheduler, error) {
	cfg.fillDefaults()
	s, err := newScheduler(cfg)
	if err != nil {
		return nil, err
	}
	var magic, count uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("core: reading state header: %w", err)
	}
	if magic != stateMagic {
		return nil, fmt.Errorf("core: bad state magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("core: reading state header: %w", err)
	}
	if count == 0 || count > 16 {
		return nil, fmt.Errorf("core: implausible policy count %d", count)
	}
	for i := uint32(0); i < count; i++ {
		var polRaw uint32
		if err := binary.Read(r, binary.LittleEndian, &polRaw); err != nil {
			return nil, fmt.Errorf("core: reading policy tag: %w", err)
		}
		valid := false
		for _, pol := range characterize.Objectives() {
			if Policy(polRaw) == pol {
				valid = true
				break
			}
		}
		if !valid {
			return nil, fmt.Errorf("core: unknown policy tag %d in saved state", polRaw)
		}
		if _, dup := s.classifiers[Policy(polRaw)]; dup {
			return nil, fmt.Errorf("core: duplicate %v classifier in saved state", Policy(polRaw))
		}
		var blobLen uint64
		if err := binary.Read(r, binary.LittleEndian, &blobLen); err != nil {
			return nil, fmt.Errorf("core: reading forest length: %w", err)
		}
		if blobLen > maxForestBlob {
			return nil, fmt.Errorf("core: implausible forest blob of %d bytes", blobLen)
		}
		// Copy incrementally instead of pre-allocating blobLen: a hostile
		// header claiming a huge length backed by a tiny file must fail
		// with an allocation proportional to the bytes actually present.
		var blob bytes.Buffer
		if n, err := io.CopyN(&blob, r, int64(blobLen)); err != nil {
			return nil, fmt.Errorf("core: reading forest blob: got %d of %d bytes: %w", n, blobLen, err)
		}
		forest, err := mlsched.ReadForest(bytes.NewReader(blob.Bytes()))
		if err != nil {
			return nil, err
		}
		s.classifiers[Policy(polRaw)] = forest
	}
	for _, pol := range characterize.Objectives() {
		if _, ok := s.classifiers[pol]; !ok {
			return nil, fmt.Errorf("core: saved state missing %v classifier", pol)
		}
	}
	s.buildPolicySet()
	return s, nil
}
