package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

type Scale struct {
	Name     string
	Sessions int
}

type resolvedCampaign struct {
	name  string
	sizes []int
}

type report struct{ sizes []int }

// scaleFingerprint names a scale by its default formatting: flagged,
// since %+v follows the struct's fields and String methods.
func scaleFingerprint(sc Scale) string {
	return fmt.Sprintf("%s-%+v", sc.Name, sc) // want `%v in key derivation scaleFingerprint`
}

// fingerprint hashes Sprint's implicit %v: flagged.
func fingerprint(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(v))) // want `fmt.Sprint in key derivation fingerprint formats its operands with %v`
	return hex.EncodeToString(sum[:8])
}

const saltFormat = "%s/%v"

// salt is the campaign salt: a %v behind a named format constant, in a
// closure, is flagged too.
func (rc *resolvedCampaign) salt() string {
	part := func() string {
		return fmt.Sprintf(saltFormat, rc.name, rc.sizes) // want `%v in key derivation resolvedCampaign.salt`
	}
	return part()
}

// ServeDiagKey spells every part with an explicit verb, and %% is a
// literal percent sign, not a verb: clean.
func ServeDiagKey(scale string, seed int64, unitKey string) string {
	return fmt.Sprintf("servediag/v%d/%s/%d/%s/100%%v", schema, scale, seed, unitKey)
}

// salt of another type derives no key, and describe is no key helper:
// both may use %v.
func (r report) salt() string { return fmt.Sprintf("%v", r.sizes) }

func describe(sc Scale) string { return fmt.Sprintf("%+v", sc) }
