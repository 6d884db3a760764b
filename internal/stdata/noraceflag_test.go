//go:build !race

package stdata

const raceBuild = false
