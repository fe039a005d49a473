package workload

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"bomw/internal/trace"
)

func twoClientSpec(seed int64) Spec {
	return Spec{
		Seed:     seed,
		HorizonS: 20,
		Clients: []Client{
			{
				Name:    "steady",
				Arrival: Arrival{Dist: DistPoisson, Rate: 40},
				Models:  []ModelMix{{Model: "mnist-small", Weight: 3}, {Model: "simple", Weight: 1}},
				Batches: []BatchMix{{Batch: 8, Weight: 8}, {Batch: 64, Weight: 1}},
			},
			{
				Name:     "bursty",
				Arrival:  Arrival{Dist: DistGamma, Rate: 25, Shape: 0.5},
				Envelope: Envelope{Kind: EnvBursty, PeriodS: 5, BurstS: 1, Gain: 4},
				Models:   []ModelMix{{Model: "mnist-small", Weight: 1}},
				Batches:  []BatchMix{{Batch: 16, Weight: 1}, {Batch: 512, Weight: 0.05}},
				StartS:   2,
				StopS:    18,
			},
		},
	}
}

func TestCompileDeterministicInSeed(t *testing.T) {
	a, err := Compile(twoClientSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(twoClientSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical spec+seed compiled to different traces")
	}
	c, err := Compile(twoClientSpec(43))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("distinct seeds compiled to identical traces")
	}
}

// The regression the compiler's sort exists for: an interleaved
// multi-client merge is exactly the stream that used to violate the
// monotone-ordering assumption of the trace consumers. The compiled
// trace must pass RateOver's (and Summarize's) ordering validation.
func TestCompiledMultiClientTraceIsOrdered(t *testing.T) {
	tr, err := Compile(twoClientSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].At < tr[i-1].At {
			t.Fatalf("event %d at %v arrives before predecessor at %v", i, tr[i].At, tr[i-1].At)
		}
	}
	if _, err := trace.Summarize(tr); err != nil {
		t.Fatalf("Summarize rejected compiled trace: %v", err)
	}
	if _, err := trace.RateOver(tr, time.Second); err != nil {
		t.Fatalf("RateOver rejected compiled trace: %v", err)
	}
}

// Compiled arrival rates track the spec: a plain Poisson client's mean
// rate lands on its configured rate, and a diurnal envelope produces
// visibly higher peak-window than valley-window rates.
func TestCompileRespectsRates(t *testing.T) {
	spec := Spec{
		Seed:     9,
		HorizonS: 60,
		Clients: []Client{{
			Arrival: Arrival{Dist: DistPoisson, Rate: 100},
			Models:  []ModelMix{{Model: "m", Weight: 1}},
			Batches: []BatchMix{{Batch: 4, Weight: 1}},
		}},
	}
	tr, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.Summarize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.MeanRate-100)/100 > 0.05 {
		t.Fatalf("mean rate %.1f req/s, want 100 ± 5%%", st.MeanRate)
	}

	spec.Clients[0].Envelope = Envelope{Kind: EnvDiurnal, PeriodS: 60, Floor: 0.1}
	tr, err = Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := trace.RateOver(tr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	peak, valley := 0.0, math.Inf(1)
	for _, r := range rates {
		peak = math.Max(peak, r)
		valley = math.Min(valley, r)
	}
	if peak < 3*valley {
		t.Fatalf("diurnal envelope flat: peak %.1f vs valley %.1f req/s", peak, valley)
	}
}

// The weighted mixes drive model and batch populations.
func TestCompileMixes(t *testing.T) {
	tr, err := Compile(twoClientSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]int{}
	sawBig := false
	for _, r := range tr {
		models[r.Model]++
		if r.Batch == 512 {
			sawBig = true
		}
	}
	if models["mnist-small"] == 0 || models["simple"] == 0 {
		t.Fatalf("model mix collapsed: %v", models)
	}
	if models["mnist-small"] < 2*models["simple"] {
		t.Fatalf("3:1 weighting not reflected: %v", models)
	}
	if !sawBig {
		t.Fatal("heavy-tail batch 512 never drawn")
	}
}

func TestCompileMaxEventsTruncates(t *testing.T) {
	spec := twoClientSpec(1)
	spec.MaxEvents = 100
	tr, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 100 {
		t.Fatalf("got %d events, want 100", len(tr))
	}
}

func TestCompileRejectsRunawaySpecs(t *testing.T) {
	spec := Spec{
		Seed:     1,
		HorizonS: 1e6,
		Clients: []Client{{
			Arrival: Arrival{Dist: DistPoisson, Rate: 1e6},
			Models:  []ModelMix{{Model: "m", Weight: 1}},
			Batches: []BatchMix{{Batch: 1, Weight: 1}},
		}},
	}
	if _, err := Compile(spec); !errors.Is(err, ErrTooManyEvents) {
		t.Fatalf("got %v, want ErrTooManyEvents", err)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	base := func() Spec { return twoClientSpec(1) }
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   error
	}{
		{"no clients", func(s *Spec) { s.Clients = nil }, ErrNoClients},
		{"bad horizon", func(s *Spec) { s.HorizonS = 0 }, ErrBadHorizon},
		{"nan horizon", func(s *Spec) { s.HorizonS = math.NaN() }, ErrBadHorizon},
		{"negative rate", func(s *Spec) { s.Clients[0].Arrival.Rate = -3 }, ErrBadRate},
		{"nan rate", func(s *Spec) { s.Clients[0].Arrival.Rate = math.NaN() }, ErrBadRate},
		{"inf rate", func(s *Spec) { s.Clients[0].Arrival.Rate = math.Inf(1) }, ErrBadRate},
		{"bad shape", func(s *Spec) { s.Clients[1].Arrival.Shape = 0 }, ErrBadShape},
		{"unknown dist", func(s *Spec) { s.Clients[0].Arrival.Dist = "pareto" }, ErrUnknownDist},
		{"unknown envelope", func(s *Spec) { s.Clients[0].Envelope.Kind = "square" }, ErrUnknownEnvelope},
		{"bad envelope", func(s *Spec) { s.Clients[1].Envelope.Gain = 0.5 }, ErrBadEnvelope},
		{"empty models", func(s *Spec) { s.Clients[0].Models = nil }, ErrBadMix},
		{"nan weight", func(s *Spec) { s.Clients[0].Models[0].Weight = math.NaN() }, ErrBadMix},
		{"zero weights", func(s *Spec) {
			for i := range s.Clients[0].Batches {
				s.Clients[0].Batches[i].Weight = 0
			}
		}, ErrBadMix},
		{"bad batch", func(s *Spec) { s.Clients[0].Batches[0].Batch = 0 }, ErrBadBatch},
		{"bad window", func(s *Spec) { s.Clients[1].StartS = 30 }, ErrBadWindow},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			if err := s.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
			if _, err := Compile(s); !errors.Is(err, tc.want) {
				t.Fatalf("Compile() = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := twoClientSpec(11)
	var buf bytes.Buffer
	if err := spec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, back)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "not json"},
		{"unknown field", `{"seed":1,"horizon_s":1,"typo":true,"clients":[]}`},
		{"trailing data", `{"seed":1,"horizon_s":1,"clients":[{"arrival":{"dist":"poisson","rate":1},"models":[{"model":"m","weight":1}],"batches":[{"batch":1,"weight":1}]}]} {}`},
		{"no clients", `{"seed":1,"horizon_s":1,"clients":[]}`},
		{"negative rate", `{"seed":1,"horizon_s":1,"clients":[{"arrival":{"dist":"poisson","rate":-1},"models":[{"model":"m","weight":1}],"batches":[{"batch":1,"weight":1}]}]}`},
	}
	for _, tc := range cases {
		if _, err := ParseSpecBytes([]byte(tc.in)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
