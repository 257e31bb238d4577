package core

import (
	"fmt"

	"webtxprofile/internal/sparse"
	"webtxprofile/internal/svm"
)

// scorer owns the profile-set scoring loop: one window evaluated against
// every user's model, with the users in sorted order. It is the single
// accept-loop shared by the streaming Identifier (and through it the
// Monitor) and the batch evaluation paths, replacing the per-call
// map-iterate-and-sort that used to be duplicated across them. Scoring
// runs on the fused population index (svm.FusedIndex): the Monitor builds
// one index for the whole profile set and every shard attaches only its
// own scratch, so the postings are shared read-only across shards.
//
// A scorer is not safe for concurrent use (it reuses scratch via the
// underlying svm.Scorer); the Monitor keeps one per shard, serialized by
// the shard lock.
type scorer struct {
	users []string
	sc    *svm.Scorer
	// streaks is Identifier.classify's merge scratch, shared by every
	// identifier of the scorer (one per shard, serialized like sc).
	streaks []streak

	// refModels, when non-nil, routes acceptMask through the pre-fused
	// per-model decision path (svm.Model.Accept, one window walk per
	// model) — the reference engine the fused-equivalence suites compare
	// against. Test seam only; never set in production.
	refModels []*svm.Model
	refAcc    []bool
}

// setModels extracts the set's models in sorted-user order — the model
// ordering every scorer (and the shared fused index) uses.
func setModels(set *ProfileSet) ([]string, []*svm.Model, error) {
	if set == nil || len(set.Profiles) == 0 {
		return nil, nil, fmt.Errorf("core: scorer needs a trained profile set")
	}
	users := set.Users()
	models := make([]*svm.Model, len(users))
	for i, u := range users {
		p := set.Profiles[u]
		if p == nil || p.Model == nil {
			return nil, nil, fmt.Errorf("core: profile %s has no model", u)
		}
		models[i] = p.Model
	}
	return users, models, nil
}

// newScorer builds a scorer over the set's profiles with its own private
// fused index (the standalone Identifier path; Monitor shards share one
// index via newSharedScorer).
func newScorer(set *ProfileSet) (*scorer, error) {
	users, models, err := setModels(set)
	if err != nil {
		return nil, err
	}
	return &scorer{users: users, sc: svm.NewScorer(models)}, nil
}

// newSharedScorer attaches fresh per-shard scratch to an already-built
// fused index.
func newSharedScorer(users []string, ix *svm.FusedIndex) *scorer {
	return &scorer{users: users, sc: ix.NewScorer()}
}

// newReferenceScorer builds the pre-fused per-model scorer (test seam —
// see MonitorConfig.referenceScoring).
func newReferenceScorer(users []string, models []*svm.Model) *scorer {
	return &scorer{
		users:     users,
		sc:        svm.NewScorer(models),
		refModels: models,
		refAcc:    make([]bool, len(models)),
	}
}

// acceptMask scores one window vector against every profile and returns
// the per-user accept mask, parallel to s.users. The mask is scratch owned
// by the scorer, valid until the next call.
func (s *scorer) acceptMask(x sparse.Vector) []bool {
	if s.refModels != nil {
		for i, m := range s.refModels {
			s.refAcc[i] = m.Accept(x)
		}
		return s.refAcc
	}
	return s.sc.AcceptMask(x)
}
