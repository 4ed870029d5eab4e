// Package datagen synthesizes "who buy-from where" transaction graphs with
// planted fraud, standing in for the proprietary JD.com datasets of the
// paper's Table I (see DESIGN.md §1 for the substitution argument).
//
// The generator reproduces the structural properties the paper says the
// detectors key on:
//
//   - Background traffic with Zipf-skewed merchant popularity and
//     heavy-tailed user activity (legitimate e-commerce shape).
//   - Multiple disjoint groups of fraudsters, each a dense random bipartite
//     block between a batch of registered accounts and a handful of target
//     merchants ("synchronized behaviour" + "rare behaviour", §III-A).
//   - Camouflage edges from fraud accounts to popular honest merchants
//     (the adversarial pattern FRAUDAR's column weights defend against).
//   - A noisy blacklist ground truth: a fraction of real fraud is missing
//     (never caught) and a fraction of honest users is wrongly listed
//     (account theft, later appeals) — both phenomena the paper describes
//     in §V-A, and the reason absolute precision/recall are modest.
package datagen

import (
	"fmt"
	"math/rand"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/eval"
)

// Zipf exponents of the background traffic: merchant popularity is skewed
// more than user activity, matching Davg(merchant) ≫ Davg(PIN) in §V-C2.
const (
	merchantZipfS = 1.3
	userZipfS     = 1.8
)

// CommunitySpec describes one legitimate dense shopping community — a set
// of honest users concentrating purchases on a shared merchant pool
// (regional customers, category enthusiasts). Communities are what makes
// real transaction spectra "busy": they carry more spectral mass than fraud
// blocks (more total edges), so the leading SVD components describe them
// rather than the fraud — the effect behind SPOKEN's and FBOX's instability
// in the paper's Figure 3. They are sparser per node than fraud blocks, so
// density heuristics still rank fraud first.
type CommunitySpec struct {
	Users     int
	Merchants int
	// AvgUserDegree is the mean number of in-community purchases per
	// member.
	AvgUserDegree float64
}

// GroupSpec describes one planted group of fraudsters.
type GroupSpec struct {
	// Users is the number of fraud accounts in the group.
	Users int
	// Merchants is the number of colluding target merchants.
	Merchants int
	// Density is the edge probability inside the block; the paper's
	// "synchronized behaviour" corresponds to densities far above the
	// background's.
	Density float64
	// CamouflagePerUser is the number of extra edges each fraud account
	// makes to popular background merchants.
	CamouflagePerUser int
}

// Config fully determines one synthetic dataset.
type Config struct {
	Name string
	Seed int64

	// Background population.
	BackgroundUsers     int
	BackgroundMerchants int
	BackgroundEdges     int

	// Communities are legitimate dense regions drawn over background ids.
	Communities []CommunitySpec

	// Fraud plants.
	Groups []GroupSpec

	// Blacklist noise.
	// MissingLabelRate is the fraction of planted fraud users absent from
	// the blacklist.
	MissingLabelRate float64
	// FalseLabelRate is the number of wrongly blacklisted honest users,
	// expressed as a fraction of the blacklist's planted part.
	FalseLabelRate float64
}

// Dataset is a generated graph plus its ground truth.
type Dataset struct {
	Name  string
	Graph *bipartite.Graph
	// Labels is the noisy blacklist the evaluation uses, as in the paper.
	Labels *eval.Labels
	// TrueFraudUsers are the planted fraud accounts (noise-free, for
	// diagnostics and tests).
	TrueFraudUsers []uint32
	// FraudGroups[i] lists the user ids of planted group i.
	FraudGroups [][]uint32
}

// Stats summarizes the dataset in the shape of the paper's Table I row.
type Stats struct {
	Name      string
	Users     int
	FraudPINs int // blacklist size, the paper's "Fraud PIN" column
	Merchants int
	Edges     int
}

// Stats returns the Table I row for d.
func (d *Dataset) Stats() Stats {
	return Stats{
		Name:      d.Name,
		Users:     d.Graph.NumUsers(),
		FraudPINs: d.Labels.NumFraud,
		Merchants: d.Graph.NumMerchants(),
		Edges:     d.Graph.NumEdges(),
	}
}

// Generate builds the dataset. It is deterministic in Config (including
// Seed).
func Generate(cfg Config) (*Dataset, error) {
	if cfg.BackgroundUsers <= 0 || cfg.BackgroundMerchants <= 0 {
		return nil, fmt.Errorf("datagen: background sides must be positive, got %d users x %d merchants",
			cfg.BackgroundUsers, cfg.BackgroundMerchants)
	}
	for i, gr := range cfg.Groups {
		if gr.Users <= 0 || gr.Merchants <= 0 {
			return nil, fmt.Errorf("datagen: group %d has empty side", i)
		}
		if gr.Density <= 0 || gr.Density > 1 {
			return nil, fmt.Errorf("datagen: group %d density %g out of (0,1]", i, gr.Density)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	fraudUsers, fraudMerchants := 0, 0
	for _, gr := range cfg.Groups {
		fraudUsers += gr.Users
		fraudMerchants += gr.Merchants
	}
	numUsers := cfg.BackgroundUsers + fraudUsers
	numMerchants := cfg.BackgroundMerchants + fraudMerchants

	b := bipartite.NewBuilderSized(numUsers, numMerchants,
		cfg.BackgroundEdges+estimatedFraudEdges(cfg.Groups))

	// --- background traffic ---
	// The Zipf offset v flattens the distribution's head so the busiest
	// node carries a few percent of traffic, not tens of percent; without
	// it, duplicate (u, v) draws collapse under dedup and the realized
	// edge count falls far short of the Table I target.
	merchZipf := rand.NewZipf(rng, merchantZipfS, 1+float64(cfg.BackgroundMerchants)/200, uint64(cfg.BackgroundMerchants-1))
	userZipf := rand.NewZipf(rng, userZipfS, 1+float64(cfg.BackgroundUsers)/100, uint64(cfg.BackgroundUsers-1))
	// Permute ids so popularity is not correlated with id order (samplers
	// and detectors must not be able to exploit id structure).
	userPerm := rng.Perm(cfg.BackgroundUsers)
	merchPerm := rng.Perm(cfg.BackgroundMerchants)
	// Draw until the requested number of *distinct* edges exists, with an
	// attempt cap guaranteeing termination on tiny dense populations.
	seen := make(map[uint64]struct{}, cfg.BackgroundEdges)
	maxAttempts := 3*cfg.BackgroundEdges + 16
	for attempt := 0; len(seen) < cfg.BackgroundEdges && attempt < maxAttempts; attempt++ {
		u := userPerm[int(userZipf.Uint64())]
		v := merchPerm[int(merchZipf.Uint64())]
		key := uint64(u)<<32 | uint64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(uint32(u), uint32(v))
	}

	// --- legitimate communities ---
	for _, cs := range cfg.Communities {
		cu := cs.Users
		if cu > cfg.BackgroundUsers {
			cu = cfg.BackgroundUsers
		}
		cv := cs.Merchants
		if cv > cfg.BackgroundMerchants {
			cv = cfg.BackgroundMerchants
		}
		if cu == 0 || cv == 0 {
			continue
		}
		memberUsers := make([]uint32, cu)
		for i := range memberUsers {
			memberUsers[i] = uint32(rng.Intn(cfg.BackgroundUsers))
		}
		memberMerchants := make([]uint32, cv)
		for i := range memberMerchants {
			memberMerchants[i] = uint32(rng.Intn(cfg.BackgroundMerchants))
		}
		for _, u := range memberUsers {
			deg := int(cs.AvgUserDegree)
			if rng.Float64() < cs.AvgUserDegree-float64(deg) {
				deg++
			}
			for k := 0; k < deg; k++ {
				b.AddEdge(u, memberMerchants[rng.Intn(cv)])
			}
		}
	}

	// --- fraud blocks ---
	ds := &Dataset{Name: cfg.Name}
	uBase := cfg.BackgroundUsers
	vBase := cfg.BackgroundMerchants
	for _, gr := range cfg.Groups {
		var group []uint32
		for i := 0; i < gr.Users; i++ {
			u := uint32(uBase + i)
			group = append(group, u)
			ds.TrueFraudUsers = append(ds.TrueFraudUsers, u)
			for j := 0; j < gr.Merchants; j++ {
				if rng.Float64() < gr.Density {
					b.AddEdge(u, uint32(vBase+j))
				}
			}
			for k := 0; k < gr.CamouflagePerUser; k++ {
				v := merchPerm[int(merchZipf.Uint64())]
				b.AddEdge(u, uint32(v))
			}
		}
		ds.FraudGroups = append(ds.FraudGroups, group)
		uBase += gr.Users
		vBase += gr.Merchants
	}

	ds.Graph = b.Build()

	// --- noisy blacklist ---
	var blacklist []uint32
	for _, u := range ds.TrueFraudUsers {
		if rng.Float64() >= cfg.MissingLabelRate {
			blacklist = append(blacklist, u)
		}
	}
	falseCount := int(cfg.FalseLabelRate * float64(len(blacklist)))
	for k := 0; k < falseCount; k++ {
		blacklist = append(blacklist, uint32(rng.Intn(cfg.BackgroundUsers)))
	}
	ds.Labels = eval.NewLabels(numUsers, blacklist)
	return ds, nil
}

func estimatedFraudEdges(groups []GroupSpec) int {
	total := 0
	for _, gr := range groups {
		total += int(float64(gr.Users*gr.Merchants)*gr.Density) + gr.Users*gr.CamouflagePerUser
	}
	return total
}
